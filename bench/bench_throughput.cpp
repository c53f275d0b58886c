// Per-update cost of the Stat4 primitives vs the floating-point baseline
// the paper cannot use on a switch (Welford), plus per-packet cost of the
// switch-side programs.  Also measures the lazy-vs-eager standard-deviation
// trade-off of Section 3.
//
// Unlike the other bench harnesses this one has a custom main: alongside
// the console table it can write a machine-readable report — every
// benchmark's timings plus a full telemetry snapshot (the instrumented
// engine/runtime counters the benchmarks just exercised) — the format of
// the committed BENCH_throughput.json baseline.  Flags, consumed before
// google-benchmark sees them:
//   --quick        CI smoke mode (min_time 0.01s)
//   --json=FILE    write the JSON report to FILE; without it nothing is
//                  written, so a run never overwrites the baseline
#include <benchmark/benchmark.h>

#include <array>
#include <bitset>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/telemetry.hpp"

#include "analysis/catalog.hpp"
#include "analysis/pass_manager.hpp"
#include "control/ml/ml.hpp"
#include "baseline/welford.hpp"
#include "netsim/netsim.hpp"
#include "p4sim/craft.hpp"
#include "p4sim/threaded.hpp"
#include "runtime/runtime.hpp"
#include "sketch/apps.hpp"
#include "stat4/stat4.hpp"
#include "stat4p4/stat4p4.hpp"

namespace {

// ------------------------------------------------------ library primitives

void BM_RunningStatsAdd(benchmark::State& state) {
  stat4::RunningStats s;
  std::uint64_t x = 1;
  for (auto _ : state) {
    s.add(x % 1000);
    x = x * 2862933555777941757ull + 3037000493ull;
    if (s.n() > 1'000'000) s.reset();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RunningStatsAdd);

void BM_WelfordAdd(benchmark::State& state) {
  baseline::Welford w;
  std::uint64_t x = 1;
  for (auto _ : state) {
    w.add(static_cast<double>(x % 1000));
    benchmark::DoNotOptimize(w);  // keep the accumulator live
    x = x * 2862933555777941757ull + 3037000493ull;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WelfordAdd);

void BM_FreqDistObserve(benchmark::State& state) {
  stat4::FreqDist d(256);
  std::uint64_t x = 1;
  for (auto _ : state) {
    d.observe(x % 256);
    x = x * 2862933555777941757ull + 3037000493ull;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FreqDistObserve);

void BM_FreqDistObserveWithMedian(benchmark::State& state) {
  stat4::FreqDist d(256);
  d.attach_percentile(stat4::Percentile{50});
  std::uint64_t x = 1;
  for (auto _ : state) {
    d.observe(x % 256);
    x = x * 2862933555777941757ull + 3037000493ull;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FreqDistObserveWithMedian);

void BM_IntervalWindowRecord(benchmark::State& state) {
  stat4::IntervalWindow w(100, 8 * stat4::kMillisecond);
  stat4::TimeNs t = 0;
  for (auto _ : state) {
    w.record(t);
    t += 40'000;  // ~200 packets per interval
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IntervalWindowRecord);

// -------------------------------------------------- lazy vs eager stddev

void BM_StdDevLazy(benchmark::State& state) {
  // Update-heavy workload, sd read once per 200 updates (one check per
  // interval): the design the paper advocates.
  stat4::RunningStats s;
  std::uint64_t x = 1;
  std::uint64_t i = 0;
  for (auto _ : state) {
    s.add(x % 1000);
    x = x * 2862933555777941757ull + 3037000493ull;
    if (++i % 200 == 0) benchmark::DoNotOptimize(s.stddev_nx());
    if (s.n() > 1'000'000) s.reset();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdDevLazy);

void BM_StdDevEager(benchmark::State& state) {
  // sd recomputed on every update — what lazy evaluation avoids.
  stat4::RunningStats s;
  std::uint64_t x = 1;
  for (auto _ : state) {
    s.add(x % 1000);
    benchmark::DoNotOptimize(s.stddev_nx());
    x = x * 2862933555777941757ull + 3037000493ull;
    if (s.n() > 1'000'000) s.reset();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdDevEager);

// ------------------------------------------------- switch-side programs

namespace {

void track_freq_setup(stat4p4::MonitorApp& app) {
  app.install_forward(p4sim::ipv4(10, 0, 0, 0), 8, 1);
  stat4p4::FreqBindingSpec spec;
  spec.dst_prefix = p4sim::ipv4(10, 0, 0, 0);
  spec.dst_prefix_len = 8;
  spec.dist = 1;
  spec.shift = 8;
  app.install_freq_binding(spec);
}

/// Records which execution tier a BM_Switch* row actually ran on
/// (p4sim::ExecTier as a number), so a STAT4_EXEC_TIER override cannot
/// silently change what an unpinned row measures.
void report_tier(benchmark::State& state, const p4sim::P4Switch& sw) {
  state.counters["active_tier"] = static_cast<double>(sw.active_tier());
}

/// Steady-state drain loop — the structure FleetRunner's worker actually
/// runs (fleet_runner.cpp): process_into() with ONE SwitchOutput whose
/// vectors are reused, the forwarded packet's buffer recycled as the next
/// input.  The dst subnet varies 1..6 with zero per-packet allocation, so
/// this isolates parse → match → action → deparse cost — the number the
/// execution tiers compete on.
void track_freq_drain_loop(benchmark::State& state, stat4p4::MonitorApp& app) {
  // dst byte 2 lives at eth(14) + ipv4 dst offset(16) + 2.
  constexpr std::size_t kDstSubnetByte = 14 + 16 + 2;
  p4sim::Packet pkt = p4sim::make_udp_packet(
      p4sim::ipv4(8, 8, 8, 8), p4sim::ipv4(10, 0, 1, 1), 1, 2);
  p4sim::SwitchOutput out;
  // The subnet sequence is pre-drawn so the timed region contains only the
  // switch (the RNG draw is harness, not data path).
  std::array<p4sim::Byte, 256> subnets;
  netsim::Rng rng(1);
  for (auto& b : subnets) b = static_cast<p4sim::Byte>(1 + rng.below(6));
  std::size_t i = 0;
  for (auto _ : state) {
    pkt.data[kDstSubnetByte] = subnets[i++ & 255];
    app.sw().process_into(std::move(pkt), out);
    pkt = std::move(out.packets[0].second);  // recycle the buffer
  }
  state.SetItemsProcessed(state.iterations());
  report_tier(state, app.sw());
}

}  // namespace

void BM_SwitchTrackFreqPacketThreaded(benchmark::State& state) {
  stat4p4::MonitorApp app;
  track_freq_setup(app);
  app.sw().set_exec_tier(p4sim::ExecTier::kThreaded);
  track_freq_drain_loop(state, app);
}
BENCHMARK(BM_SwitchTrackFreqPacketThreaded);

void BM_SwitchTrackFreqPacketJit(benchmark::State& state) {
  stat4p4::MonitorApp app;
  track_freq_setup(app);
  app.sw().set_exec_tier(p4sim::ExecTier::kNative);
  // One warm-up packet triggers the transpile + host-compile outside the
  // timed loop (the unit is memoized process-wide afterwards).
  (void)app.sw().process(p4sim::make_udp_packet(
      p4sim::ipv4(8, 8, 8, 8), p4sim::ipv4(10, 0, 1, 1), 1, 2));
  if (app.sw().active_tier() != p4sim::ExecTier::kNative) {
    state.SkipWithError("native tier unavailable (no host compiler?)");
    return;
  }
  track_freq_drain_loop(state, app);
}
BENCHMARK(BM_SwitchTrackFreqPacketJit);

void BM_SwitchTrackFreqPacketOptimized(benchmark::State& state) {
  // The same workload after the dataflow optimizer (stat4_opt) rewrote the
  // pipeline: fewer IR instructions and a smaller per-packet scratch span.
  // Same tier and loop as BM_SwitchTrackFreqPacketThreaded, its comparator,
  // so the difference is the dynamic payoff of the static instruction-count
  // reduction stat4_opt --json reports.
  stat4p4::MonitorApp app;
  track_freq_setup(app);
  (void)analysis::optimize_switch(app.sw());
  app.sw().set_exec_tier(p4sim::ExecTier::kThreaded);
  track_freq_drain_loop(state, app);
}
BENCHMARK(BM_SwitchTrackFreqPacketOptimized);

void BM_SwitchWindowTickPacket(benchmark::State& state) {
  // One packet every 40 us against 8 ms intervals: the window rolls on one
  // packet in 200, so this row prices the threaded tier's guarded runs
  // (the roll work is skipped on the other 199).  Pinned to that tier.
  stat4p4::MonitorApp app;
  app.install_forward(p4sim::ipv4(10, 0, 0, 0), 8, 1);
  app.install_rate_monitor(p4sim::ipv4(10, 0, 0, 0), 8, 0,
                           8 * static_cast<std::uint64_t>(
                                   stat4::kMillisecond),
                           100, 8);
  app.sw().set_exec_tier(p4sim::ExecTier::kThreaded);
  stat4::TimeNs t = 0;
  for (auto _ : state) {
    p4sim::Packet pkt = p4sim::make_udp_packet(
        p4sim::ipv4(8, 8, 8, 8), p4sim::ipv4(10, 0, 1, 1), 1, 2);
    pkt.ingress_ts = t;
    t += 40'000;
    benchmark::DoNotOptimize(app.sw().process(std::move(pkt)));
  }
  state.SetItemsProcessed(state.iterations());
  report_tier(state, app.sw());
}
BENCHMARK(BM_SwitchWindowTickPacket);

void BM_SwitchForwardOnlyPacket(benchmark::State& state) {
  // Baseline: a switch doing pure L3 forwarding, no Stat4.
  stat4p4::MonitorApp app;
  app.install_forward(p4sim::ipv4(10, 0, 0, 0), 8, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(app.sw().process(p4sim::make_udp_packet(
        p4sim::ipv4(8, 8, 8, 8), p4sim::ipv4(10, 0, 1, 1), 1, 2)));
  }
  state.SetItemsProcessed(state.iterations());
  report_tier(state, app.sw());
}
BENCHMARK(BM_SwitchForwardOnlyPacket);

void BM_SwitchSketchHHPacket(benchmark::State& state) {
  // Heavy-hitter path (src/sketch/): count-min update + threshold digest
  // arming per packet.  Versus BM_SwitchForwardOnlyPacket this prices the
  // whole sketch stage; versus BM_SwitchTrackFreqPacketThreaded it compares
  // the sketch against the frequency tracker on the same traffic shape.  The
  // threshold is high enough that the digest never fires — steady-state
  // cost, not the alert path.  Pinned to the threaded tier; its program has
  // no run worth guarding, so it also pins the bypass of guarded runs.
  sketch::SketchApp app(sketch::SketchKind::kCountMin);
  app.install_forward(p4sim::ipv4(10, 0, 0, 0), 8, 1);
  app.install_sketch(0, 0, 0, 0xFFFFFFFFull,
                     std::numeric_limits<std::uint64_t>::max());
  app.sw().set_exec_tier(p4sim::ExecTier::kThreaded);
  netsim::Rng rng(1);
  for (auto _ : state) {
    const auto subnet = 1 + static_cast<unsigned>(rng.below(6));
    benchmark::DoNotOptimize(app.sw().process(p4sim::make_udp_packet(
        p4sim::ipv4(8, 8, 8, 8), p4sim::ipv4(10, 0, subnet, 1), 1, 2)));
  }
  state.SetItemsProcessed(state.iterations());
  report_tier(state, app.sw());
}
BENCHMARK(BM_SwitchSketchHHPacket);

// ------------------------------------------------------------ netsim layer

void BM_NetsimHopPacket(benchmark::State& state) {
  // The case study's simulated path for one packet, minus the pump: a host
  // sends a fresh UDP packet, it crosses a link to a forward-only
  // P4SwitchNode and a second link to the sink host, and sim.run() drains
  // the two arrival events.  Versus BM_SwitchForwardOnlyPacket this prices
  // netsim's share: event queue, per-wire packet rings and node dispatch.
  // The queue holds one or two events here, so BM_NetsimDeepQueuePacket
  // prices the case study's queue depth.
  stat4p4::MonitorApp app;
  app.install_forward(p4sim::ipv4(10, 0, 0, 0), 8, 1);
  app.sw().set_exec_tier(p4sim::ExecTier::kThreaded);
  netsim::Simulator sim;
  netsim::Network net(sim);
  const auto sw =
      net.add_node(std::make_unique<netsim::P4SwitchNode>(app.sw()));
  const auto src = net.add_node(std::make_unique<netsim::HostNode>());
  const auto dst = net.add_node(std::make_unique<netsim::HostNode>());
  net.link(src, 0, sw, 0, 50 * stat4::kMicrosecond);
  net.link(sw, 1, dst, 0, 50 * stat4::kMicrosecond);
  auto& host = net.node<netsim::HostNode>(src);
  for (auto _ : state) {
    host.transmit(0, p4sim::make_udp_packet(p4sim::ipv4(8, 8, 8, 8),
                                            p4sim::ipv4(10, 0, 1, 1), 1, 2));
    benchmark::DoNotOptimize(sim.run());
  }
  if (net.node<netsim::HostNode>(dst).packets_received() !=
      static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("a packet was not delivered");
  }
  state.SetItemsProcessed(state.iterations());
  report_tier(state, app.sw());
}
BENCHMARK(BM_NetsimHopPacket);

void BM_NetsimDeepQueuePacket(benchmark::State& state) {
  // The case study's queue depth: two pumps with its baseline and spike
  // gaps (40 us and 4.444 us) feed a forward-only P4SwitchNode on the
  // threaded tier over two 50 us links, which keeps ~25 packets in flight.
  // An iteration simulates 4 us, in which the pumps send one packet on
  // average (1/40 + 1/4.444 per us), so the row reads ns per simulated
  // packet: its pump step, its two link hops and the switch.
  stat4p4::MonitorApp app;
  app.install_forward(p4sim::ipv4(10, 0, 0, 0), 8, 1);
  app.sw().set_exec_tier(p4sim::ExecTier::kThreaded);
  netsim::Simulator sim;
  netsim::Network net(sim);
  const auto sw =
      net.add_node(std::make_unique<netsim::P4SwitchNode>(app.sw()));
  const auto src = net.add_node(std::make_unique<netsim::HostNode>());
  const auto dst = net.add_node(std::make_unique<netsim::HostNode>());
  net.link(src, 0, sw, 0, 50 * stat4::kMicrosecond);
  net.link(sw, 1, dst, 0, 50 * stat4::kMicrosecond);
  auto& host = net.node<netsim::HostNode>(src);
  auto& sink = net.node<netsim::HostNode>(dst);
  netsim::PacketPump pump(sim, [&host](p4sim::Packet pkt) {
    host.transmit(0, std::move(pkt));
  });
  const std::uint32_t from = p4sim::ipv4(172, 16, 0, 1);
  pump.launch(0, 0, 40'000,
              netsim::fixed_udp_factory(from, p4sim::ipv4(10, 0, 1, 1)));
  pump.launch(0, 0, 4'444,
              netsim::fixed_udp_factory(from, p4sim::ipv4(10, 0, 2, 2)));
  sim.run_until(200 * stat4::kMicrosecond);  // both links full
  const std::uint64_t warm = sink.packets_received();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run_until(sim.now() + 4'000));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(sink.packets_received() - warm));
  report_tier(state, app.sw());
}
BENCHMARK(BM_NetsimDeepQueuePacket);

// ------------------------------------------------------ threaded lowering

/// Lowers every action of `sw` per iteration, with the switch's observable
/// set, as P4Switch::compile_pipeline does for the threaded tier: the work
/// a new switch or a program write costs the next packet.
void lower_loop(benchmark::State& state, p4sim::P4Switch& sw) {
  std::bitset<p4sim::kTempCount> observable;
  for (std::size_t a = 0; a < sw.action_count(); ++a) {
    observable |=
        p4sim::read_before_write(sw.action(static_cast<p4sim::ActionId>(a)));
  }
  for (auto _ : state) {
    for (std::size_t a = 0; a < sw.action_count(); ++a) {
      benchmark::DoNotOptimize(p4sim::threaded_compile(
          sw.action(static_cast<p4sim::ActionId>(a)), sw.registers(),
          observable));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sw.action_count()));
}

void BM_LowerMonitorApp(benchmark::State& state) {
  // The case study's MonitorApp: 10 actions, five of which form guarded
  // runs (window_tick and the four trackers).
  const auto sw = analysis::build_example_mutable("case_study");
  lower_loop(state, *sw);
}
BENCHMARK(BM_LowerMonitorApp);

void BM_LowerCountSketchApp(benchmark::State& state) {
  // No action of the count-sketch app forms a guarded run, so pass 4 gives
  // up on every one of them.
  sketch::SketchApp app(sketch::SketchKind::kCountSketch);
  lower_loop(state, app.sw());
}
BENCHMARK(BM_LowerCountSketchApp);

void BM_AnomalyScorePacket(benchmark::State& state) {
  // Controller-side ML ensemble cost per fed sample (docs/ML.md): with the
  // model pool full, every feed extracts the 6-dim feature vector, scores
  // all 4 k-means models, and amortizes a Lloyd's retrain every
  // train_stagger samples.  This is the per-telemetry-window cost on the
  // controller, NOT a packet hot-path stage — it bounds how many metrics a
  // controller can watch per second.
  control::ml::AnomalyDetector det;
  const control::ml::MetricId m = det.register_metric("bench");
  netsim::Rng rng(42);
  for (int i = 0; i < 512; ++i) det.feed(m, 1000 + rng.below(64));
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.feed(m, 1000 + rng.below(64)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnomalyScorePacket);

// --------------------------------------------------------- engine ingest

// One Stat4Engine fed per packet: 8 frequency distributions behind a /8
// match, every packet updating all 8 through the resolved-binding cache.
void BM_EngineProcessScalar(benchmark::State& state) {
  stat4::Stat4Engine engine(stat4::OverflowPolicy::kSaturate);
  constexpr std::size_t kDists = 8;
  for (std::size_t i = 0; i < kDists; ++i) {
    const auto id = engine.add_freq_dist(1024);
    stat4::BindingEntry entry;
    entry.dist = id;
    entry.match.dst_prefix = stat4::Prefix{p4sim::ipv4(10, 0, 0, 0), 8};
    entry.extractor.field = stat4::Field::kSrcPort;
    entry.extractor.shift = static_cast<std::uint8_t>(i % 4);
    entry.extractor.mask = 1023;
    entry.kind = stat4::UpdateKind::kFrequencyObserve;
    engine.add_binding(entry);
  }
  std::vector<stat4::PacketFields> trace(256);
  std::uint64_t x = 1;
  for (auto& pkt : trace) {
    pkt.dst_ip = p4sim::ipv4(10, 0, 1, 1);
    pkt.src_port = static_cast<std::uint16_t>(x);
    x = x * 2862933555777941757ull + 3037000493ull;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    engine.process(trace[i]);
    i = (i + 1) & 255;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineProcessScalar);

// FleetRunner fan-out: one full MonitorApp switch per worker thread, packets
// round-robined across the fleet.  This scales the number of independent
// switches — the Figure 1c deployment shape.
void BM_FleetRunnerFanOut(benchmark::State& state) {
  const auto switches = static_cast<std::size_t>(state.range(0));
  runtime::FleetRunner::Config cfg;
  cfg.queue_capacity = 4096;
  cfg.policy = runtime::FleetRunner::Policy::kBlock;
  runtime::FleetRunner runner(cfg);
  std::vector<std::unique_ptr<stat4p4::MonitorApp>> apps;
  for (std::size_t i = 0; i < switches; ++i) {
    apps.push_back(std::make_unique<stat4p4::MonitorApp>());
    apps.back()->install_forward(p4sim::ipv4(10, 0, 0, 0), 8, 1);
    stat4p4::FreqBindingSpec spec;
    spec.dst_prefix = p4sim::ipv4(10, 0, 0, 0);
    spec.dst_prefix_len = 8;
    spec.dist = 1;
    spec.shift = 8;
    spec.check = false;
    apps.back()->install_freq_binding(spec);
    runner.add_switch(*apps.back());
  }
  runner.start();
  std::uint64_t x = 1;
  std::size_t next = 0;
  for (auto _ : state) {
    p4sim::Packet pkt = p4sim::make_udp_packet(
        p4sim::ipv4(8, 8, 8, 8),
        p4sim::ipv4(10, 0, 1 + static_cast<unsigned>(x % 6), 1), 1, 2);
    runner.inject(static_cast<control::SwitchId>(next), std::move(pkt));
    next = (next + 1) % switches;
    x = x * 2862933555777941757ull + 3037000493ull;
  }
  runner.stop();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FleetRunnerFanOut)->DenseRange(1, 4)->UseRealTime();

// The producer→lane hop alone: one producer thread and one consumer thread
// that keeps pace, through one SpscRing sized like a FleetRunner lane, with
// no switch.  Three pairs:
//   * staged:0 publishes every item (one seq_cst head store each);
//     staged:1 publishes the way FleetRunner::inject does — at 64 staged
//     items, or at once when the consumer has spun out;
//   * packet:0 hands off a 40-byte POD; packet:1 a crafted UDP Packet,
//     whose craft is part of the per-item cost;
//   * hand_back:0 moves each packet out on the consumer, so its buffer is
//     freed there (the allocating thread's caches never see it again);
//     hand_back:1 leaves it in its slot for the producer's next stage to
//     free, as FleetRunner lanes do.
// Real time per item.  The consumer drains in-place bursts of 64.
struct HandoffPod {
  std::array<std::uint64_t, 5> words{};
};

template <typename T, typename Make>
void run_handoff(benchmark::State& state, Make make) {
  const bool staged = state.range(0) != 0;
  const bool hand_back = state.range(2) != 0;
  constexpr std::size_t kBurst = 64;
  runtime::SpscRing<T> ring(4096 + kBurst);
  std::uint64_t consumed = 0;
  std::thread consumer([&] {
    runtime::IdleStats idle;
    while (ring.wait_readable(idle)) {
      consumed += ring.consume_burst(kBurst, [hand_back](T& item) {
        if (hand_back) {
          benchmark::DoNotOptimize(item);
        } else {
          T taken = std::move(item);
          benchmark::DoNotOptimize(taken);
        }
      });
    }
  });
  std::uint64_t x = 1;
  for (auto _ : state) {
    ring.stage_blocking(make(x++), [] {});
    if (!staged || ring.staged() >= kBurst || ring.consumer_idle()) {
      ring.publish();
    }
  }
  ring.publish();
  ring.close();
  consumer.join();
  if (consumed != static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("handoff lost items");
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_FleetHandoff(benchmark::State& state) {
  if (state.range(1) == 0) {
    run_handoff<HandoffPod>(state, [](std::uint64_t x) {
      HandoffPod pod;
      pod.words[0] = x;
      return pod;
    });
    return;
  }
  run_handoff<p4sim::Packet>(state, [](std::uint64_t x) {
    return p4sim::make_udp_packet(
        p4sim::ipv4(8, 8, 8, 8),
        p4sim::ipv4(10, 0, 1 + static_cast<unsigned>(x % 6), 1), 1, 2);
  });
}
BENCHMARK(BM_FleetHandoff)
    ->ArgNames({"staged", "packet", "hand_back"})
    ->Args({0, 0, 0})
    ->Args({1, 0, 0})
    ->Args({0, 1, 0})
    ->Args({1, 1, 0})
    ->Args({0, 1, 1})
    ->Args({1, 1, 1})
    ->UseRealTime();

// ------------------------------------------------ machine-readable output

/// Console output as usual, but also keep every completed run so main()
/// can serialize them next to the telemetry snapshot.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const auto& run : reports) runs_.push_back(run);
    ConsoleReporter::ReportRuns(reports);
  }

  [[nodiscard]] const std::vector<Run>& runs() const noexcept {
    return runs_;
  }

 private:
  std::vector<Run> runs_;
};

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out += buf;
}

std::string results_json(const std::vector<benchmark::BenchmarkReporter::Run>&
                             runs,
                         bool quick) {
  std::string out = "{\"bench\":\"bench_throughput\",\"quick\":";
  out += quick ? "true" : "false";
  out += ",\"telemetry_enabled\":";
  out += STAT4_TELEMETRY_ENABLED ? "true" : "false";
  out += ",\"benchmarks\":[";
  bool first = true;
  for (const auto& run : runs) {
    if (run.error_occurred) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + run.benchmark_name() + "\",\"iterations\":" +
           std::to_string(run.iterations) + ",\"real_time_ns_per_iter\":";
    const double iters =
        run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
    append_double(out, run.real_accumulated_time / iters * 1e9);
    out += ",\"cpu_time_ns_per_iter\":";
    append_double(out, run.cpu_accumulated_time / iters * 1e9);
    for (const auto& [name, counter] : run.counters) {
      out += ",\"" + name + "\":";
      append_double(out, counter.value);
    }
    out += '}';
  }
  out += "],\"telemetry\":";
  out += telemetry::MetricsRegistry::global().snapshot().to_json();
  out += '}';
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  std::vector<char*> bench_args;
  bench_args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(std::string("--json=").size());
    } else {
      bench_args.push_back(argv[i]);
    }
  }
  // Plain-seconds spelling: accepted by google-benchmark both before and
  // after the 1.8 "0.01s" suffix syntax.
  std::string min_time = "--benchmark_min_time=0.01";
  if (quick) bench_args.push_back(min_time.data());

  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             bench_args.data())) {
    return 1;
  }
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (json_path.empty()) return 0;
  std::ofstream json(json_path, std::ios::trunc);
  if (!json) {
    std::cerr << "bench_throughput: cannot write " << json_path << '\n';
    return 1;
  }
  json << results_json(reporter.runs(), quick) << '\n';
  std::cerr << "wrote " << json_path << '\n';
  return 0;
}
