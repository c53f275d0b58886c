#include "runtime/sharded_engine.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace runtime {

ShardedEngine::ShardedEngine(std::size_t shards, stat4::OverflowPolicy policy,
                             std::size_t queue_capacity, std::size_t batch_size)
    : queue_capacity_(queue_capacity) {
  if (shards == 0) throw stat4::UsageError("runtime: shard count must be > 0");
  set_batch_size(batch_size);
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->engine = std::make_unique<stat4::Stat4Engine>(policy);
    shard->ring = std::make_unique<SpscRing<Op>>(queue_capacity_);
    // Each shard engine reports through one sink installed once, here: the
    // lambda translates local dist ids to global ones and routes the alert
    // either inline (synchronous mode) or through the MPSC channel (worker
    // thread -> flush()-calling thread).
    Shard* sp = shard.get();
    shard->engine->set_alert_sink([this, sp](const stat4::Alert& a) {
      stat4::Alert global = a;
      global.dist = sp->global_of_local[a.dist];
      global.seq = alert_seq_.fetch_add(1, std::memory_order_acq_rel);
      if (running_) {
        alert_channel_.push(global);
      } else if (alert_sink_) {
        alert_sink_(global);
      }
    });
    shards_.push_back(std::move(shard));
  }
}

ShardedEngine::~ShardedEngine() {
  if (running_) stop();
}

void ShardedEngine::set_batch_size(std::size_t batch_size) {
  if (batch_size == 0) {
    throw stat4::UsageError("runtime: batch size must be > 0");
  }
  if (running_) {
    throw stat4::UsageError(
        "runtime: set_batch_size() requires stopped workers");
  }
  batch_size_ = batch_size;
}

stat4::DistId ShardedEngine::register_dist(std::size_t shard,
                                           stat4::DistId local) {
  shards_[shard]->global_of_local.push_back(
      static_cast<stat4::DistId>(dist_map_.size()));
  dist_map_.push_back({shard, local});
  next_shard_ = (shard + 1) % shards_.size();
  return static_cast<stat4::DistId>(dist_map_.size() - 1);
}

stat4::DistId ShardedEngine::add_freq_dist(std::size_t domain_size) {
  const std::size_t s = next_shard_;
  return register_dist(s, shards_[s]->engine->add_freq_dist(domain_size));
}

stat4::DistId ShardedEngine::add_sliding_freq_dist(std::size_t domain_size,
                                                   std::size_t window) {
  const std::size_t s = next_shard_;
  return register_dist(
      s, shards_[s]->engine->add_sliding_freq_dist(domain_size, window));
}

stat4::DistId ShardedEngine::add_interval_window(std::size_t num_intervals,
                                                 stat4::TimeNs interval_len,
                                                 unsigned k_sigma) {
  const std::size_t s = next_shard_;
  return register_dist(s, shards_[s]->engine->add_interval_window(
                              num_intervals, interval_len, k_sigma));
}

stat4::DistId ShardedEngine::add_value_stats() {
  const std::size_t s = next_shard_;
  return register_dist(s, shards_[s]->engine->add_value_stats());
}

const ShardedEngine::DistRef& ShardedEngine::ref(stat4::DistId id) const {
  if (id >= dist_map_.size()) {
    throw stat4::UsageError("runtime: unknown distribution id");
  }
  return dist_map_[id];
}

stat4::Stat4Engine& ShardedEngine::engine_of(stat4::DistId id) {
  return *shards_[ref(id).shard]->engine;
}

const stat4::Stat4Engine& ShardedEngine::engine_of(stat4::DistId id) const {
  return *shards_[ref(id).shard]->engine;
}

std::size_t ShardedEngine::shard_of(stat4::DistId id) const {
  return ref(id).shard;
}

void ShardedEngine::enable_spike_check(stat4::DistId id,
                                       std::size_t min_history) {
  engine_of(id).enable_spike_check(ref(id).local, min_history);
}

void ShardedEngine::enable_stall_check(stat4::DistId id,
                                       std::size_t min_history) {
  engine_of(id).enable_stall_check(ref(id).local, min_history);
}

void ShardedEngine::enable_value_outlier_check(stat4::DistId id,
                                               stat4::Count min_n) {
  engine_of(id).enable_value_outlier_check(ref(id).local, min_n);
}

void ShardedEngine::enable_imbalance_check(stat4::DistId id,
                                           stat4::Count min_total) {
  engine_of(id).enable_imbalance_check(ref(id).local, min_total);
}

void ShardedEngine::rearm(stat4::DistId id) {
  engine_of(id).rearm(ref(id).local);
}

stat4::BindingId ShardedEngine::add_binding(const stat4::BindingEntry& entry) {
  const DistRef& r = ref(entry.dist);
  stat4::BindingEntry local = entry;
  local.dist = r.local;
  return shards_[r.shard]->engine->add_binding(local);
}

const stat4::FreqDist& ShardedEngine::freq(stat4::DistId id) const {
  return engine_of(id).freq(ref(id).local);
}
stat4::FreqDist& ShardedEngine::freq(stat4::DistId id) {
  return engine_of(id).freq(ref(id).local);
}
const stat4::SlidingFreqDist& ShardedEngine::sliding(stat4::DistId id) const {
  return engine_of(id).sliding(ref(id).local);
}
const stat4::IntervalWindow& ShardedEngine::window(stat4::DistId id) const {
  return engine_of(id).window(ref(id).local);
}
const stat4::RunningStats& ShardedEngine::values(stat4::DistId id) const {
  return engine_of(id).values(ref(id).local);
}

// ------------------------------------------------------- synchronous path

void ShardedEngine::process(const stat4::PacketFields& pkt) {
  if (running_) {
    throw stat4::UsageError(
        "runtime: use submit(), not process(), while workers run");
  }
  for (auto& shard : shards_) shard->engine->process(pkt);
}

void ShardedEngine::advance_time(stat4::TimeNs now) {
  if (running_) {
    throw stat4::UsageError(
        "runtime: use submit_advance() while workers run");
  }
  for (auto& shard : shards_) shard->engine->advance_time(now);
}

// ---------------------------------------------------------- threaded path

void ShardedEngine::worker_loop(Shard& shard) {
  // The drain loop consumes whole bursts (one ring handshake each),
  // segments them into contiguous packet runs fed to
  // Stat4Engine::process_batch(), and publishes `processed` once per
  // burst.  Telemetry is batched in locals and flushed at burst
  // boundaries: a per-op atomic RMW from every worker measurably slows the
  // pipeline it is observing.
  //
  // Idle policy is spin -> yield -> park, in SpscRing::wait_readable(): an
  // idle worker parks on the ring after ~144 polls and costs the scheduler
  // nothing until the producer publishes or closes.
  STAT4_TELEMETRY_ONLY(
      static telemetry::Counter& t_ops =
          telemetry::MetricsRegistry::global().counter("runtime.shard.ops");
      static telemetry::Counter& t_idle_spins =
          telemetry::MetricsRegistry::global().counter(
              "runtime.shard.idle_spins");
      static telemetry::Counter& t_parks =
          telemetry::MetricsRegistry::global().counter("runtime.shard.parks");
      static telemetry::Counter& t_wakes =
          telemetry::MetricsRegistry::global().counter("runtime.shard.wakes");
      static telemetry::Histogram& t_burst =
          telemetry::MetricsRegistry::global().histogram(
              "runtime.shard.drain_burst");)
  std::vector<stat4::PacketFields> pkts;
  pkts.reserve(batch_size_);
  const auto run_packets = [&] {
    if (pkts.empty()) return;
    shard.engine->process_batch(pkts.data(), pkts.size());
    pkts.clear();
  };
  const auto take = [&](const Op& op) {
    if (op.advance_to < 0) {
      pkts.push_back(op.pkt);
      return;
    }
    run_packets();
    shard.engine->advance_time(op.advance_to);
  };
  IdleStats idle;
  const auto flush_idle = [&] {
    STAT4_TELEMETRY_ONLY(
        if (idle.polls != 0) t_idle_spins.add(idle.polls);
        if (idle.parks != 0) {
          t_parks.add(idle.parks);
          t_wakes.add(idle.parks);
        })
    idle = {};
  };
  while (shard.ring->wait_readable(idle)) {
    flush_idle();
    const std::size_t n = shard.ring->consume_burst(batch_size_, take);
    run_packets();
    STAT4_TELEMETRY_ONLY(t_ops.add(n); t_burst.record(n);)
    // Release so a flush() that observes the new count also observes all
    // register state written while processing.
    shard.processed.fetch_add(n, std::memory_order_release);
  }
  flush_idle();
}

void ShardedEngine::start() {
  if (running_) throw stat4::UsageError("runtime: engine already running");
  for (auto& shard : shards_) {
    // Fresh ring per run: close() is sticky, so a stopped engine needs a
    // new end-of-stream marker to be restartable.
    shard->ring = std::make_unique<SpscRing<Op>>(queue_capacity_);
    shard->processed.store(0, std::memory_order_relaxed);
  }
  submitted_ = 0;
  published_ops_ = 0;
  stage_limit_ = std::max<std::size_t>(
      1, std::min(batch_size_, shards_.front()->ring->capacity() / 2));
  running_ = true;
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, s = shard.get()] { worker_loop(*s); });
  }
}

void ShardedEngine::enqueue(const Op& op) {
  // Backpressure stalls are timed in full: they are rare and exactly the
  // events worth tracing.
  STAT4_TELEMETRY_ONLY(
      static telemetry::Counter& t_waits =
          telemetry::MetricsRegistry::global().counter(
              "runtime.shard.backpressure_waits");
      static telemetry::Histogram& t_stall =
          telemetry::MetricsRegistry::global().histogram(
              "runtime.shard.backpressure_stall_ns");)
  for (auto& shard : shards_) {
    STAT4_TELEMETRY_ONLY(std::optional<telemetry::SpanTimer> t_span;)
    shard->ring->stage_blocking(op, [&] {
      backpressure_waits_.fetch_add(1, std::memory_order_relaxed);
      STAT4_TELEMETRY_ONLY(t_waits.add(); t_span.emplace(t_stall);)
    });
  }
  if (++submitted_ - published_ops_ >= stage_limit_) publish_rings();
}

void ShardedEngine::publish_rings() {
  // Queue depth is sampled at 1 in 8 publishes (then read for every shard,
  // so imbalance between shards is visible); the sampling tick is a plain
  // member — publishes happen on the single producer thread by contract —
  // so the unsampled path adds no atomics.
  STAT4_TELEMETRY_ONLY(
      static telemetry::Histogram& t_depth =
          telemetry::MetricsRegistry::global().histogram(
              "runtime.shard.queue_depth");
      const bool t_sample = (t_enqueue_tick_++ & 7) == 0;)
  for (auto& shard : shards_) {
    STAT4_TELEMETRY_ONLY(if (t_sample) t_depth.record(shard->ring->size());)
    shard->ring->publish();
  }
  published_ops_ = submitted_;
}

void ShardedEngine::submit(const stat4::PacketFields& pkt) {
  Op op;
  op.pkt = pkt;
  enqueue(op);
}

void ShardedEngine::submit_advance(stat4::TimeNs now) {
  Op op;
  op.advance_to = now;
  enqueue(op);
}

void ShardedEngine::drain_alerts() {
  std::vector<stat4::Alert> pending;
  alert_channel_.drain(pending);
  if (alert_sink_) {
    for (const auto& a : pending) alert_sink_(a);
  }
}

void ShardedEngine::flush() {
  if (!running_) return;
  publish_rings();
  STAT4_TELEMETRY_ONLY(
      static telemetry::Histogram& t_flush =
          telemetry::MetricsRegistry::global().histogram(
              "runtime.shard.flush_ns");
      telemetry::SpanTimer t_span(t_flush);)
  Backoff backoff;
  for (auto& shard : shards_) {
    while (shard->processed.load(std::memory_order_acquire) < submitted_) {
      backoff.pause();
    }
    backoff.reset();
  }
  drain_alerts();
}

void ShardedEngine::stop() {
  if (!running_) return;
  flush();
  for (auto& shard : shards_) shard->ring->close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  running_ = false;
  drain_alerts();
}

}  // namespace runtime
