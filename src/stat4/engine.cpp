#include "stat4/engine.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"

namespace stat4 {

#if STAT4_TELEMETRY_ENABLED
namespace {

/// Process-wide engine metrics, resolved once (every Stat4Engine in the
/// process sums here).
struct EngineMetrics {
  telemetry::Counter& packets;
  telemetry::Histogram& process_ns;

  static EngineMetrics& get() {
    static EngineMetrics m{
        telemetry::MetricsRegistry::global().counter("stat4.engine.packets"),
        telemetry::MetricsRegistry::global().histogram(
            "stat4.engine.process_ns")};
    return m;
  }
};

/// Packets per flush of the per-engine tick into the shared counter.
/// process() can be ~25ns of real work; even one uncontended atomic RMW
/// per packet is a measurable tax at that scale, so the count is kept in a
/// plain member (the engine is single-threaded by contract) and published
/// every kPacketBatch packets and on advance_time().
constexpr std::uint32_t kPacketBatch = 256;

}  // namespace
#endif  // STAT4_TELEMETRY_ENABLED

Stat4Engine::Stat4Engine(OverflowPolicy policy) : policy_(policy) {}

DistId Stat4Engine::add_freq_dist(std::size_t domain_size) {
  DistSlot s;
  s.dist = std::make_unique<FreqDist>(domain_size, policy_);
  dists_.push_back(std::move(s));
  return static_cast<DistId>(dists_.size() - 1);
}

DistId Stat4Engine::add_sliding_freq_dist(std::size_t domain_size,
                                          std::size_t window) {
  DistSlot s;
  s.dist = std::make_unique<SlidingFreqDist>(domain_size, window, policy_);
  dists_.push_back(std::move(s));
  return static_cast<DistId>(dists_.size() - 1);
}

DistId Stat4Engine::add_interval_window(std::size_t num_intervals,
                                        TimeNs interval_len,
                                        unsigned k_sigma) {
  DistSlot s;
  s.k_sigma = k_sigma;
  s.dist = std::make_unique<IntervalWindow>(num_intervals, interval_len,
                                            k_sigma, policy_);
  dists_.push_back(std::move(s));
  return static_cast<DistId>(dists_.size() - 1);
}

DistId Stat4Engine::add_value_stats() {
  DistSlot s;
  s.dist = std::make_unique<RunningStats>(policy_);
  dists_.push_back(std::move(s));
  return static_cast<DistId>(dists_.size() - 1);
}

Stat4Engine::DistSlot& Stat4Engine::slot(DistId id) {
  if (id >= dists_.size()) throw UsageError("stat4: unknown distribution id");
  return dists_[id];
}

const Stat4Engine::DistSlot& Stat4Engine::slot(DistId id) const {
  if (id >= dists_.size()) throw UsageError("stat4: unknown distribution id");
  return dists_[id];
}

namespace {
template <typename T, typename Variant>
T& get_dist(Variant& v, const char* kind) {
  auto* p = std::get_if<std::unique_ptr<T>>(&v);
  if (p == nullptr || *p == nullptr) {
    throw UsageError(std::string("stat4: distribution is not a ") + kind);
  }
  return **p;
}
}  // namespace

FreqDist& Stat4Engine::freq(DistId id) {
  return get_dist<FreqDist>(slot(id).dist, "FreqDist");
}
SlidingFreqDist& Stat4Engine::sliding(DistId id) {
  return get_dist<SlidingFreqDist>(slot(id).dist, "SlidingFreqDist");
}
const SlidingFreqDist& Stat4Engine::sliding(DistId id) const {
  return get_dist<SlidingFreqDist>(const_cast<DistSlot&>(slot(id)).dist,
                                   "SlidingFreqDist");
}
const FreqDist& Stat4Engine::freq(DistId id) const {
  return get_dist<FreqDist>(const_cast<DistSlot&>(slot(id)).dist, "FreqDist");
}
IntervalWindow& Stat4Engine::window(DistId id) {
  return get_dist<IntervalWindow>(slot(id).dist, "IntervalWindow");
}
const IntervalWindow& Stat4Engine::window(DistId id) const {
  return get_dist<IntervalWindow>(const_cast<DistSlot&>(slot(id)).dist,
                                  "IntervalWindow");
}
RunningStats& Stat4Engine::values(DistId id) {
  return get_dist<RunningStats>(slot(id).dist, "RunningStats");
}
const RunningStats& Stat4Engine::values(DistId id) const {
  return get_dist<RunningStats>(const_cast<DistSlot&>(slot(id)).dist,
                                "RunningStats");
}

void Stat4Engine::ensure_interval_callback(DistId window_id) {
  DistSlot& s = slot(window_id);
  IntervalWindow& w = get_dist<IntervalWindow>(s.dist, "IntervalWindow");
  w.set_on_interval([this, window_id](const IntervalReport& r) {
    DistSlot& ws = slot(window_id);
    if (ws.latched) return;
    const IntervalWindow& win =
        get_dist<IntervalWindow>(ws.dist, "IntervalWindow");
    // The report's verdict was computed against the pre-insertion history;
    // completed() already includes the closed interval, hence the +1.
    if (win.completed() < ws.min_history + 1) return;
    if (ws.spike_check && r.upper.is_outlier) {
      ws.latched = true;
      emit(AlertKind::kRateSpike, window_id, r.value, r.upper, r.start);
      return;
    }
    if (ws.stall_check) {
      // Lower check against the post-insertion stats: a collapse to ~zero
      // stays a collapse whether or not the empty interval itself joined
      // the distribution.
      const OutlierVerdict low =
          win.stats().lower_outlier(r.value, ws.k_sigma);
      if (low.is_outlier) {
        ws.latched = true;
        emit(AlertKind::kRateStall, window_id, r.value, low, r.start);
      }
    }
  });
}

void Stat4Engine::enable_spike_check(DistId window_id,
                                     std::size_t min_history) {
  DistSlot& s = slot(window_id);
  s.spike_check = true;
  s.min_history = std::max(s.min_history, min_history);
  ensure_interval_callback(window_id);
}

void Stat4Engine::enable_stall_check(DistId window_id,
                                     std::size_t min_history) {
  DistSlot& s = slot(window_id);
  s.stall_check = true;
  s.min_history = std::max(s.min_history, min_history);
  ensure_interval_callback(window_id);
}

void Stat4Engine::enable_value_outlier_check(DistId values_id, Count min_n) {
  DistSlot& s = slot(values_id);
  get_dist<RunningStats>(s.dist, "RunningStats");  // type check
  s.value_check = true;
  s.min_total = min_n;
}

void Stat4Engine::enable_imbalance_check(DistId freq_id, Count min_total) {
  DistSlot& s = slot(freq_id);
  // Either a plain or a sliding frequency distribution qualifies.
  if (!std::holds_alternative<std::unique_ptr<FreqDist>>(s.dist) &&
      !std::holds_alternative<std::unique_ptr<SlidingFreqDist>>(s.dist)) {
    throw UsageError("stat4: distribution is not a frequency distribution");
  }
  s.imbalance_check = true;
  s.min_total = min_total;
}

void Stat4Engine::rearm(DistId id) { slot(id).latched = false; }

BindingId Stat4Engine::add_binding(const BindingEntry& entry) {
  slot(entry.dist);  // validate the target exists
  invalidate_resolved();
  bindings_.emplace_back(entry);
  return static_cast<BindingId>(bindings_.size() - 1);
}

void Stat4Engine::modify_binding(BindingId id, const BindingEntry& entry) {
  if (id >= bindings_.size() || !bindings_[id].has_value()) {
    throw UsageError("stat4: unknown binding id");
  }
  slot(entry.dist);
  invalidate_resolved();
  bindings_[id] = entry;
}

void Stat4Engine::remove_binding(BindingId id) {
  if (id >= bindings_.size() || !bindings_[id].has_value()) {
    throw UsageError("stat4: unknown binding id");
  }
  invalidate_resolved();
  bindings_[id].reset();
}

std::size_t Stat4Engine::active_bindings() const noexcept {
  std::size_t n = 0;
  for (const auto& b : bindings_) {
    if (b.has_value() && b->enabled) ++n;
  }
  return n;
}

void Stat4Engine::apply(const BindingEntry& b, DistSlot& s,
                        const PacketFields& pkt) {
  const Value v = b.extractor.extract(pkt);
  switch (b.kind) {
    case UpdateKind::kFrequencyObserve: {
      Count total = 0;
      Count distinct = 0;
      OutlierVerdict verdict;
      if (auto* sl =
              std::get_if<std::unique_ptr<SlidingFreqDist>>(&s.dist)) {
        (*sl)->observe(v);
        total = (*sl)->total();
        distinct = (*sl)->distinct();
        if (s.imbalance_check) verdict = (*sl)->frequency_outlier(v, s.k_sigma);
      } else {
        FreqDist& d = get_dist<FreqDist>(s.dist, "FreqDist");
        d.observe(v);
        total = d.total();
        distinct = d.distinct();
        if (s.imbalance_check) verdict = d.frequency_outlier(v, s.k_sigma);
      }
      if (s.imbalance_check && !s.latched && total >= s.min_total &&
          distinct >= 2 && verdict.is_outlier) {
        s.latched = true;
        emit(AlertKind::kFrequencyImbalance, b.dist, v, verdict,
             pkt.timestamp);
      }
      break;
    }
    case UpdateKind::kIntervalCount:
      get_dist<IntervalWindow>(s.dist, "IntervalWindow")
          .record(pkt.timestamp, 1);
      break;
    case UpdateKind::kIntervalSum:
      get_dist<IntervalWindow>(s.dist, "IntervalWindow")
          .record(pkt.timestamp, v);
      break;
    case UpdateKind::kValueSample: {
      RunningStats& stats = get_dist<RunningStats>(s.dist, "RunningStats");
      // Check BEFORE inserting so the sample is judged against history.
      if (s.value_check && !s.latched && stats.n() >= s.min_total) {
        const OutlierVerdict verdict = stats.upper_outlier(v, s.k_sigma);
        if (verdict.is_outlier) {
          s.latched = true;
          emit(AlertKind::kValueOutlier, b.dist, v, verdict, pkt.timestamp);
        }
      }
      stats.add(v);
      break;
    }
  }
}

void Stat4Engine::refresh_resolved() {
  resolved_.clear();
  for (BindingId id = 0; id < bindings_.size(); ++id) {
    if (bindings_[id].has_value() && bindings_[id]->enabled) {
      resolved_.push_back(id);
    }
  }
  resolved_gen_ = mutation_gen_;
}

void Stat4Engine::process(const PacketFields& pkt) {
  // Per-packet cost: one plain increment + compare on a member the owning
  // thread already has in cache.  The shared striped counter sees one RMW
  // per kPacketBatch packets, and the latency span times the one packet
  // that opens each batch (1-in-256, unbiased for steady traffic) so the
  // clock never enters the other 255 per-packet paths.
  STAT4_TELEMETRY_ONLY(
      const bool t_sampled = (t_tick_ == 0);
      const std::uint64_t t_start = t_sampled ? telemetry::now_ns() : 0;
      if (++t_tick_ == kPacketBatch) {
        EngineMetrics::get().packets.add(t_tick_);
        t_tick_ = 0;
      })
  if (resolved_gen_ != mutation_gen_) refresh_resolved();
  last_time_ = pkt.timestamp;
  // Indices, re-read per binding: an alert sink may add bindings or
  // distributions (reallocating bindings_ or dists_), or remove or disable
  // a binding, while this walk runs.
  for (std::size_t i = 0; i < resolved_.size(); ++i) {
    const std::optional<BindingEntry>& b = bindings_[resolved_[i]];
    if (b && b->enabled && b->match.matches(pkt)) {
      apply(*b, dists_[b->dist], pkt);
    }
  }
  STAT4_TELEMETRY_ONLY(
      if (t_sampled) {
        EngineMetrics::get().process_ns.record(telemetry::now_ns() -
                                               t_start);
      })
}

void Stat4Engine::advance_time(TimeNs now) {
  // A natural quiescent point: publish any partial packet batch so counts
  // are exact whenever the workload lets time advance.
  STAT4_TELEMETRY_ONLY(
      if (t_tick_ != 0) {
        EngineMetrics::get().packets.add(t_tick_);
        t_tick_ = 0;
      })
  last_time_ = now;
  // Indices up to the count before the walk: a window that closes here may
  // alert a sink that adds distributions.
  for (std::size_t i = 0, n = dists_.size(); i < n; ++i) {
    auto& d = dists_[i].dist;
    if (auto* w = std::get_if<std::unique_ptr<IntervalWindow>>(&d)) {
      (*w)->advance_to(now);
    }
  }
}

void Stat4Engine::emit(AlertKind kind, DistId id, Value value,
                       const OutlierVerdict& verdict, TimeNs time) {
  STAT4_TELEMETRY_ONLY(
      static telemetry::Counter& t_alerts =
          telemetry::MetricsRegistry::global().counter(
              "stat4.engine.alerts");
      t_alerts.add();)
  Alert a;
  a.kind = kind;
  a.dist = id;
  a.value = value;
  a.verdict = verdict;
  a.time = time;
  a.seq = alert_seq_++;
  if (alert_sink_) alert_sink_(a);
}

}  // namespace stat4
