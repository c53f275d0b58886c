// Traffic generation for the case study and the Table 1 use cases.
//
// A PacketPump schedules packet emissions on the simulator clock; packet
// factories decide what each packet looks like.  Provided factories cover
// the paper's workloads: uniform load-balanced traffic across destinations
// (the case-study baseline), a fixed-destination spike, a SYN flood with
// random sources, and a Zipf-skewed destination mix (Section 5 notes that
// traffic per prefix may be zipfian).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "netsim/rng.hpp"
#include "netsim/simulator.hpp"
#include "p4sim/packet.hpp"

namespace netsim {

using PacketFactory = std::function<p4sim::Packet(std::uint64_t seq)>;

/// Multiplies a flow's base rate as a function of simulation time: a
/// modulator value of 2.0 doubles the packet rate (halves the gap), 0.5
/// halves it, and <= 0 silences the flow for that moment (the pump polls
/// again one base gap later).  Pure functions of time keep flows
/// seed-deterministic.
using RateModulator = std::function<double(TimeNs now)>;

struct FlowState;

/// Emits factory-made packets on a fixed inter-arrival grid.
///
/// The pump owns its flows: each launch adds one FlowState that lives as
/// long as the pump, and every step is an allocation-free simulator event
/// whose context is its flow (which points back at the pump).  The pump
/// must therefore outlive any run of the simulator that may still fire its
/// steps, and it cannot be copied or moved.
class PacketPump {
 public:
  using Emit = std::function<void(p4sim::Packet)>;

  PacketPump(Simulator& sim, Emit emit);
  ~PacketPump();
  PacketPump(const PacketPump&) = delete;
  PacketPump& operator=(const PacketPump&) = delete;

  /// Emit packets from `start` (absolute) until `stop`, one every `gap` ns.
  /// A `stop` of 0 means "run forever" (until the simulation stops
  /// scheduling); use Simulator::run_until to bound such flows.
  void launch(TimeNs start, TimeNs stop, TimeNs gap, PacketFactory factory);

  /// Like launch, but with exponentially distributed inter-arrival times of
  /// mean `mean_gap` (a Poisson process — the natural model for aggregate
  /// arrivals, giving the per-interval count variance that real traffic
  /// has and deterministic gaps do not).  `rng` must outlive the flow.
  void launch_poisson(TimeNs start, TimeNs stop, TimeNs mean_gap, Rng& rng,
                      PacketFactory factory);

  /// Like launch / launch_poisson, but the instantaneous rate is
  /// `modulator(now)` times the base rate implied by `base_gap`.  With a
  /// non-null `rng` the inter-arrival times are exponential around the
  /// modulated gap (a time-varying Poisson process); with nullptr they sit
  /// on the modulated grid.  Drives the ML scenarios: diurnal load swings,
  /// baseline drift, and slow-ramp attacks (docs/ML.md).
  void launch_modulated(TimeNs start, TimeNs stop, TimeNs base_gap,
                        RateModulator modulator, PacketFactory factory,
                        Rng* rng = nullptr);

  /// Stop all flows at the next emission opportunity.
  void stop_all() noexcept { stopped_ = true; }

  [[nodiscard]] std::uint64_t packets_emitted() const noexcept {
    return emitted_;
  }

 private:
  /// Takes ownership of `flow` and schedules its first step at `at`.
  void add_flow(std::unique_ptr<FlowState> flow, TimeNs at);
  void schedule_step(FlowState* flow, TimeNs at);
  void step(FlowState* flow);
  void modulated_step(FlowState* flow);
  void emit_packet(FlowState& flow);

  Simulator* sim_;
  Emit emit_;
  std::vector<std::unique_ptr<FlowState>> flows_;
  bool stopped_ = false;
  std::uint64_t emitted_ = 0;
};

/// Uniform load-balanced UDP across `destinations` (the Figure 6 baseline).
[[nodiscard]] PacketFactory uniform_udp_factory(
    Rng& rng, std::uint32_t src_ip, std::vector<std::uint32_t> destinations,
    std::size_t pad_to = 0);

/// All packets to one destination (the traffic spike).
[[nodiscard]] PacketFactory fixed_udp_factory(std::uint32_t src_ip,
                                              std::uint32_t dst_ip,
                                              std::size_t pad_to = 0);

/// TCP SYNs from random spoofed sources to one victim (Table 1 SYN flood).
[[nodiscard]] PacketFactory syn_flood_factory(Rng& rng,
                                              std::uint32_t victim_ip,
                                              std::uint16_t victim_port = 80);

/// Zipf(s)-distributed destination popularity over `destinations`.
[[nodiscard]] PacketFactory zipf_udp_factory(
    Rng& rng, std::uint32_t src_ip, std::vector<std::uint32_t> destinations,
    double s, std::size_t pad_to = 0);

// ---- rate modulators for the ML anomaly scenarios -------------------------

/// Diurnal load: 1 + amplitude * sin(2*pi*t / period) — the day/night swing
/// a static threshold must not alarm on.  `amplitude` in [0, 1).
[[nodiscard]] RateModulator diurnal_modulator(TimeNs period, double amplitude);

/// Baseline drift: rate grows by `growth_per_second` every simulated second
/// (linear in time), capped at `max_factor`.  Models organic load growth.
[[nodiscard]] RateModulator drift_modulator(double growth_per_second,
                                            double max_factor);

/// Slow-ramp attack envelope: 0 before `ramp_start`, then a linear climb to
/// `peak_factor` over `ramp_duration`, holding the peak afterwards.  Slow
/// enough a self-adapting mean+k*sigma window absorbs it; the consensus
/// ensemble does not (examples/adaptive_anomaly).
[[nodiscard]] RateModulator ramp_modulator(TimeNs ramp_start,
                                           TimeNs ramp_duration,
                                           double peak_factor);

/// Pointwise product of two modulators (diurnal * drift, ...).
[[nodiscard]] RateModulator combine_modulators(RateModulator a,
                                               RateModulator b);

}  // namespace netsim
