#include "netsim/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "p4sim/craft.hpp"
#include "telemetry/telemetry.hpp"

namespace netsim {

struct FlowState {
  PacketPump* pump = nullptr;
  TimeNs stop = 0;
  TimeNs gap = 0;
  Rng* rng = nullptr;  ///< non-null = Poisson arrivals with mean `gap`
  RateModulator modulator;  ///< non-null = time-varying rate multiplier
  PacketFactory factory;
  std::uint64_t seq = 0;
  // Modulated flows only: emission bookkeeping.  The pump re-polls at
  // least every base gap so a RISING rate takes effect immediately — a
  // naive "gap = base/factor(now)" would freeze a slow-start ramp at its
  // initial near-zero rate.
  TimeNs last_emit = 0;
  double exp_scale = 1.0;  ///< exponential inter-arrival multiplier
};

PacketPump::PacketPump(Simulator& sim, Emit emit)
    : sim_(&sim), emit_(std::move(emit)) {}

PacketPump::~PacketPump() = default;

void PacketPump::add_flow(std::unique_ptr<FlowState> flow, TimeNs at) {
  flow->pump = this;
  flows_.push_back(std::move(flow));
  schedule_step(flows_.back().get(), at);
}

void PacketPump::schedule_step(FlowState* flow, TimeNs at) {
  constexpr Simulator::EventFn kStep = [](void* f, std::uint64_t) {
    static_cast<FlowState*>(f)->pump->step(static_cast<FlowState*>(f));
  };
  sim_->schedule_at(at, kStep, flow, 0);
}

void PacketPump::launch(TimeNs start, TimeNs stop, TimeNs gap,
                        PacketFactory factory) {
  if (gap <= 0) {
    throw std::invalid_argument("netsim: packet gap must be positive");
  }
  auto flow = std::make_unique<FlowState>();
  flow->stop = stop;
  flow->gap = gap;
  flow->factory = std::move(factory);
  add_flow(std::move(flow), std::max(start, sim_->now()));
}

void PacketPump::emit_packet(FlowState& flow) {
  STAT4_TELEMETRY_ONLY(
      static telemetry::Counter& t_generated =
          telemetry::MetricsRegistry::global().counter(
              "netsim.packets_generated");
      static telemetry::Histogram& t_factory =
          telemetry::MetricsRegistry::global().histogram(
              "netsim.packet_factory_ns");
      static telemetry::SampleGate t_gate;
      t_generated.add();)
  {
    STAT4_TELEMETRY_ONLY(
        telemetry::SampledSpan t_span(t_factory, t_gate, 64);)
    emit_(flow.factory(flow.seq++));
  }
  ++emitted_;
}

void PacketPump::step(FlowState* flow) {
  if (stopped_) return;
  if (flow->stop != 0 && sim_->now() >= flow->stop) return;
  if (flow->modulator) {
    modulated_step(flow);
    return;
  }
  emit_packet(*flow);
  TimeNs gap = flow->gap;
  if (flow->rng != nullptr) {
    // Exponential inter-arrival: -mean * ln(U), U in (0, 1].
    const double u = 1.0 - flow->rng->uniform01();
    gap = std::max<TimeNs>(
        1, static_cast<TimeNs>(-static_cast<double>(flow->gap) *
                               std::log(u)));
  }
  schedule_step(flow, sim_->now() + gap);
}

void PacketPump::modulated_step(FlowState* flow) {
  const TimeNs now = sim_->now();
  double factor = flow->modulator(now);
  if (!(factor > 0.0)) {
    // Silenced: poll again one base gap later; no backlog accrues while
    // the rate is zero.
    flow->last_emit = now;
    schedule_step(flow, now + flow->gap);
    return;
  }
  factor = std::min(1e6, std::max(1e-6, factor));
  const double mean_gap = static_cast<double>(flow->gap) / factor;
  // exp_scale is the (pre-drawn) exponential multiplier of this interval;
  // 1.0 on the deterministic grid.
  const auto interval = std::max<TimeNs>(
      1, static_cast<TimeNs>(mean_gap * flow->exp_scale));
  if (now >= flow->last_emit + interval) {
    emit_packet(*flow);
    flow->last_emit = now;
    if (flow->rng != nullptr) {
      flow->exp_scale = -std::log(1.0 - flow->rng->uniform01());
    }
  }
  // Re-poll no later than one base gap out, so a rate that climbs between
  // emissions is noticed without waiting out a stale (long) interval.
  const auto next_interval = std::max<TimeNs>(
      1, static_cast<TimeNs>(mean_gap * flow->exp_scale));
  const TimeNs due = flow->last_emit + next_interval - now;
  const TimeNs wait = std::max<TimeNs>(1, std::min(due, flow->gap));
  schedule_step(flow, now + wait);
}

void PacketPump::launch_poisson(TimeNs start, TimeNs stop, TimeNs mean_gap,
                                Rng& rng, PacketFactory factory) {
  if (mean_gap <= 0) {
    throw std::invalid_argument("netsim: mean gap must be positive");
  }
  auto flow = std::make_unique<FlowState>();
  flow->stop = stop;
  flow->gap = mean_gap;
  flow->rng = &rng;
  flow->factory = std::move(factory);
  add_flow(std::move(flow), std::max(start, sim_->now()));
}

void PacketPump::launch_modulated(TimeNs start, TimeNs stop, TimeNs base_gap,
                                  RateModulator modulator,
                                  PacketFactory factory, Rng* rng) {
  if (base_gap <= 0) {
    throw std::invalid_argument("netsim: base gap must be positive");
  }
  if (!modulator) {
    throw std::invalid_argument("netsim: modulator must be callable");
  }
  auto flow = std::make_unique<FlowState>();
  flow->stop = stop;
  flow->gap = base_gap;
  flow->rng = rng;
  flow->modulator = std::move(modulator);
  flow->factory = std::move(factory);
  const TimeNs at = std::max(start, sim_->now());
  flow->last_emit = at - base_gap;  // first emission due immediately
  add_flow(std::move(flow), at);
}

RateModulator diurnal_modulator(TimeNs period, double amplitude) {
  if (period <= 0) {
    throw std::invalid_argument("netsim: diurnal period must be positive");
  }
  if (amplitude < 0.0 || amplitude >= 1.0) {
    throw std::invalid_argument("netsim: diurnal amplitude must be in [0,1)");
  }
  constexpr double kTwoPi = 6.283185307179586;
  return [period, amplitude](TimeNs now) {
    const double phase =
        kTwoPi * static_cast<double>(now) / static_cast<double>(period);
    return 1.0 + amplitude * std::sin(phase);
  };
}

RateModulator drift_modulator(double growth_per_second, double max_factor) {
  if (max_factor <= 0.0) {
    throw std::invalid_argument("netsim: drift cap must be positive");
  }
  return [growth_per_second, max_factor](TimeNs now) {
    const double seconds = static_cast<double>(now) * 1e-9;
    return std::min(max_factor, 1.0 + growth_per_second * seconds);
  };
}

RateModulator ramp_modulator(TimeNs ramp_start, TimeNs ramp_duration,
                             double peak_factor) {
  if (ramp_duration <= 0) {
    throw std::invalid_argument("netsim: ramp duration must be positive");
  }
  if (peak_factor <= 0.0) {
    throw std::invalid_argument("netsim: ramp peak must be positive");
  }
  return [ramp_start, ramp_duration, peak_factor](TimeNs now) {
    if (now < ramp_start) return 0.0;
    if (now >= ramp_start + ramp_duration) return peak_factor;
    return peak_factor * static_cast<double>(now - ramp_start) /
           static_cast<double>(ramp_duration);
  };
}

RateModulator combine_modulators(RateModulator a, RateModulator b) {
  if (!a || !b) {
    throw std::invalid_argument("netsim: combined modulators must be callable");
  }
  return [a = std::move(a), b = std::move(b)](TimeNs now) {
    return a(now) * b(now);
  };
}

PacketFactory uniform_udp_factory(Rng& rng, std::uint32_t src_ip,
                                  std::vector<std::uint32_t> destinations,
                                  std::size_t pad_to) {
  if (destinations.empty()) {
    throw std::invalid_argument("netsim: no destinations");
  }
  return [&rng, src_ip, dests = std::move(destinations),
          pad_to](std::uint64_t seq) {
    const std::uint32_t dst = dests[rng.below(dests.size())];
    const auto sport = static_cast<std::uint16_t>(20000 + (seq & 0x3FF));
    return p4sim::make_udp_packet(src_ip, dst, sport, 8080, pad_to);
  };
}

PacketFactory fixed_udp_factory(std::uint32_t src_ip, std::uint32_t dst_ip,
                                std::size_t pad_to) {
  return [src_ip, dst_ip, pad_to](std::uint64_t seq) {
    const auto sport = static_cast<std::uint16_t>(30000 + (seq & 0x3FF));
    return p4sim::make_udp_packet(src_ip, dst_ip, sport, 8080, pad_to);
  };
}

PacketFactory syn_flood_factory(Rng& rng, std::uint32_t victim_ip,
                                std::uint16_t victim_port) {
  return [&rng, victim_ip, victim_port](std::uint64_t) {
    const auto spoofed = static_cast<std::uint32_t>(rng.next());
    const auto sport = static_cast<std::uint16_t>(1024 + rng.below(60000));
    return p4sim::make_tcp_packet(spoofed, victim_ip, sport, victim_port,
                                  p4sim::kTcpSyn);
  };
}

PacketFactory zipf_udp_factory(Rng& rng, std::uint32_t src_ip,
                               std::vector<std::uint32_t> destinations,
                               double s, std::size_t pad_to) {
  if (destinations.empty()) {
    throw std::invalid_argument("netsim: no destinations");
  }
  // Precompute the CDF of rank popularity ~ 1/rank^s.
  std::vector<double> cdf(destinations.size());
  double total = 0.0;
  for (std::size_t i = 0; i < destinations.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = total;
  }
  for (auto& c : cdf) c /= total;

  return [&rng, src_ip, dests = std::move(destinations), cdf = std::move(cdf),
          pad_to](std::uint64_t seq) {
    const double u = rng.uniform01();
    std::size_t lo = 0;
    std::size_t hi = cdf.size() - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cdf[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    const auto sport = static_cast<std::uint16_t>(40000 + (seq & 0x3FF));
    return p4sim::make_udp_packet(src_ip, dests[lo], sport, 8080, pad_to);
  };
}

}  // namespace netsim
