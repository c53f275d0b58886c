// Stat4Engine: distributions + binding tables + anomaly checks.
//
// This is the library-level composition a Stat4 application runs per packet
// (Figure 4): consult the binding tables, update the bound distributions,
// and raise alerts when an enabled statistical check trips.  It is the
// C++-native mirror of the switch-side pipeline in stat4p4; the two are
// cross-validated by the echo experiment (Figure 5).
//
// The number of simultaneously tracked distributions corresponds to the
// paper's STAT_COUNTER_NUM macro and the per-distribution domain size to
// STAT_COUNTER_SIZE; both are runtime arguments here.
#pragma once

#include <functional>
#include <memory>
#include <variant>
#include <vector>

#include "stat4/binding.hpp"
#include "stat4/freq_dist.hpp"
#include "stat4/interval_window.hpp"
#include "stat4/running_stats.hpp"
#include "stat4/sliding_freq.hpp"
#include "stat4/types.hpp"

namespace stat4 {

using BindingId = std::uint32_t;

enum class AlertKind : std::uint8_t {
  kRateSpike,            ///< interval count above mean + k*sd (case study #1)
  kFrequencyImbalance,   ///< one value's frequency is an upper outlier (#2)
  kRateStall,            ///< interval count below mean - k*sd (Table 1,
                         ///< "remote failure / stalled flows over time")
  kValueOutlier,         ///< a sampled value is an upper outlier
};

/// Pushed to the alert sink — the in-switch analogue of the digest a P4
/// switch sends its controller (Figure 1c).
struct Alert {
  AlertKind kind = AlertKind::kRateSpike;
  DistId dist = 0;
  Value value = 0;           ///< offending value (interval count / domain value)
  OutlierVerdict verdict;    ///< the comparison that tripped
  TimeNs time = 0;
  std::uint64_t seq = 0;     ///< monotonically increasing alert number
};

class Stat4Engine {
 public:
  explicit Stat4Engine(OverflowPolicy policy = OverflowPolicy::kThrow);

  // --- distribution management (STAT_COUNTER_NUM dimension) ---------------
  DistId add_freq_dist(std::size_t domain_size);
  /// A frequency distribution over only the last `window` observations —
  /// for long-standing checks where stale history must age out.
  DistId add_sliding_freq_dist(std::size_t domain_size, std::size_t window);
  DistId add_interval_window(std::size_t num_intervals, TimeNs interval_len,
                             unsigned k_sigma = 2);
  DistId add_value_stats();

  [[nodiscard]] FreqDist& freq(DistId id);
  [[nodiscard]] const FreqDist& freq(DistId id) const;
  [[nodiscard]] SlidingFreqDist& sliding(DistId id);
  [[nodiscard]] const SlidingFreqDist& sliding(DistId id) const;
  [[nodiscard]] IntervalWindow& window(DistId id);
  [[nodiscard]] const IntervalWindow& window(DistId id) const;
  [[nodiscard]] RunningStats& values(DistId id);
  [[nodiscard]] const RunningStats& values(DistId id) const;
  [[nodiscard]] std::size_t distribution_count() const noexcept {
    return dists_.size();
  }

  // --- anomaly checks ------------------------------------------------------
  /// Check each completed interval of `window` against mean + k*sd of the
  /// stored distribution; requires at least `min_history` completed
  /// intervals before arming (a two-interval history cannot define an
  /// outlier meaningfully).
  void enable_spike_check(DistId window_id, std::size_t min_history = 8);

  /// Also check each completed interval against mean - k*sd: a collapse in
  /// rate (remote failure, stalled flows) raises kRateStall.  May be
  /// combined with the spike check on the same window.
  void enable_stall_check(DistId window_id, std::size_t min_history = 8);

  /// Check each kValueSample observation against mean + k*sd of the sample
  /// distribution; requires `min_n` samples before arming.
  void enable_value_outlier_check(DistId values_id, Count min_n = 32);

  /// Check, on every observation into `freq`, whether the observed value's
  /// frequency is an upper outlier among all tracked frequencies; requires
  /// `min_total` observations and at least two distinct values.
  void enable_imbalance_check(DistId freq_id, Count min_total = 32);

  /// Checks latch after firing (one alert per anomaly, like a digest with
  /// controller-managed re-arming).  The controller calls rearm() after it
  /// has reacted — e.g. after re-binding for the drill-down.
  void rearm(DistId id);

  // --- binding tables (Figure 4) -------------------------------------------
  BindingId add_binding(const BindingEntry& entry);
  void modify_binding(BindingId id, const BindingEntry& entry);
  void remove_binding(BindingId id);
  [[nodiscard]] std::size_t active_bindings() const noexcept;

  // --- data path ------------------------------------------------------------
  /// Process one packet: walk the binding table, update matching
  /// distributions, run enabled checks.  O(#bindings).  The ids of the
  /// enabled bindings are cached, rebuilt only after a binding mutation
  /// bumps the generation counter.  An alert sink may reconfigure the
  /// engine mid-walk: a binding it removes or disables is skipped for the
  /// rest of the packet, and a binding it adds feeds from the next packet.
  void process(const PacketFields& pkt);

  /// Let time pass without traffic (closes interval windows).
  void advance_time(TimeNs now);

  void set_alert_sink(std::function<void(const Alert&)> sink) {
    alert_sink_ = std::move(sink);
  }

  [[nodiscard]] std::uint64_t alerts_emitted() const noexcept {
    return alert_seq_;
  }

 private:
  struct DistSlot {
    std::variant<std::unique_ptr<FreqDist>, std::unique_ptr<IntervalWindow>,
                 std::unique_ptr<RunningStats>,
                 std::unique_ptr<SlidingFreqDist>>
        dist;
    bool spike_check = false;
    bool stall_check = false;
    bool imbalance_check = false;
    bool value_check = false;
    bool latched = false;           ///< check fired and not yet re-armed
    std::size_t min_history = 0;
    Count min_total = 0;
    unsigned k_sigma = 2;
  };

  void emit(AlertKind kind, DistId id, Value value,
            const OutlierVerdict& verdict, TimeNs time);
  void apply(const BindingEntry& b, DistSlot& s, const PacketFields& pkt);
  void ensure_interval_callback(DistId window_id);
  DistSlot& slot(DistId id);
  const DistSlot& slot(DistId id) const;
  void refresh_resolved();
  /// Every binding add/modify/remove routes through here so the next
  /// packet rebuilds resolved_.
  void invalidate_resolved() noexcept { ++mutation_gen_; }

  OverflowPolicy policy_;
  // Telemetry packet-batch tick (see process() in engine.cpp).  A plain
  // member: the engine is single-threaded by contract, and batching keeps
  // atomics off the per-packet path.  One dead uint32 in telemetry-off
  // builds beats an #ifdef in the header.
  std::uint32_t t_tick_ = 0;
  std::vector<DistSlot> dists_;
  std::vector<std::optional<BindingEntry>> bindings_;
  std::vector<BindingId> resolved_;  ///< ids of the enabled bindings
  std::uint64_t mutation_gen_ = 0;
  std::uint64_t resolved_gen_ = ~std::uint64_t{0};  ///< != gen -> rebuild
  std::function<void(const Alert&)> alert_sink_;
  std::uint64_t alert_seq_ = 0;
  TimeNs last_time_ = 0;
};

}  // namespace stat4
