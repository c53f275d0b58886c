// Telemetry bit-neutrality: instrumentation must OBSERVE the pipeline, never
// perturb it.  A deterministic Stat4Engine workload is fingerprinted (FNV-1a
// over every alert plus the final distribution state) and must be identical
//   * with and without a live Reporter polling the registry concurrently,
//   * in telemetry-ON and telemetry-OFF builds (both assert the same golden
//     constant — CI builds both modes, so a divergence fails one of them).
// The same two phases on a MonitorApp switch, run on a FleetRunner lane
// under Reporter polling, must match the switch run on the test thread
// (digest stream, switch counters and register rows) and a second golden
// constant asserted in both builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "p4sim/craft.hpp"
#include "runtime/fleet_runner.hpp"
#include "stat4/engine.hpp"
#include "stat4p4/apps.hpp"
#include "telemetry/telemetry.hpp"

namespace {

constexpr std::uint32_t ip(unsigned a, unsigned b, unsigned c, unsigned d) {
  return (a << 24) | (b << 16) | (c << 8) | d;
}

// ------------------------------------------------------------ fingerprint

struct Fingerprint {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 1099511628211ull;  // FNV-1a prime
    }
  }
};

std::uint64_t alert_key(const stat4::Alert& a) {
  // seq is left out: alerts enter the fingerprint as a sorted multiset.
  return (static_cast<std::uint64_t>(a.kind) << 56) ^
         (static_cast<std::uint64_t>(a.dist) << 48) ^
         (static_cast<std::uint64_t>(a.value) << 20) ^
         static_cast<std::uint64_t>(a.time);
}

// ------------------------------------------------------- the workload

constexpr std::size_t kDomain = 256;
constexpr std::size_t kSteady = 6000;   // uniform phase: 10 pkts / interval
constexpr std::size_t kBurst = 2000;    // hot-key burst: 50 pkts / interval

struct Setup {
  stat4::DistId freq = 0;
  stat4::DistId window = 0;
};

Setup configure(stat4::Stat4Engine& e) {
  Setup s;
  s.freq = e.add_freq_dist(kDomain);
  e.enable_imbalance_check(s.freq, /*min_total=*/256);
  s.window = e.add_interval_window(/*num_intervals=*/16,
                                   /*interval_len=*/1000, /*k_sigma=*/2);
  e.enable_spike_check(s.window, /*min_history=*/8);

  stat4::BindingEntry freq_b;
  freq_b.extractor = {stat4::Field::kDstIp, 0, 0xFF};
  freq_b.dist = s.freq;
  freq_b.kind = stat4::UpdateKind::kFrequencyObserve;
  e.add_binding(freq_b);

  stat4::BindingEntry win_b;
  win_b.dist = s.window;
  win_b.kind = stat4::UpdateKind::kIntervalCount;
  e.add_binding(win_b);
  return s;
}

stat4::PacketFields packet_at(std::size_t i) {
  stat4::PacketFields p;
  p.length = 100;
  p.protocol = 17;
  if (i < kSteady) {
    // Uniform traffic, 100 ns apart: 10 packets per 1000 ns interval.
    p.dst_ip = ip(10, 0, 0, static_cast<unsigned>(i % 64));
    p.timestamp = static_cast<stat4::TimeNs>(i) * 100;
  } else {
    // Hot-key burst, 20 ns apart: 50 packets per interval, one dst — trips
    // both the spike check and the frequency-imbalance check.
    p.dst_ip = ip(10, 0, 0, 7);
    p.timestamp = static_cast<stat4::TimeNs>(kSteady) * 100 +
                  static_cast<stat4::TimeNs>(i - kSteady) * 20;
  }
  return p;
}

constexpr stat4::TimeNs kEndTime =
    static_cast<stat4::TimeNs>(kSteady) * 100 +
    static_cast<stat4::TimeNs>(kBurst) * 20 + 5000;

/// Runs the workload on a plain Stat4Engine, returns the fingerprint.
std::uint64_t run_sequential() {
  stat4::Stat4Engine e;
  const Setup s = configure(e);
  std::vector<std::uint64_t> alerts;
  e.set_alert_sink(
      [&alerts](const stat4::Alert& a) { alerts.push_back(alert_key(a)); });
  for (std::size_t i = 0; i < kSteady + kBurst; ++i) e.process(packet_at(i));
  e.advance_time(kEndTime);

  std::sort(alerts.begin(), alerts.end());
  Fingerprint fp;
  fp.mix(alerts.size());
  for (const auto k : alerts) fp.mix(k);
  fp.mix(e.freq(s.freq).total());
  for (std::size_t v = 0; v < kDomain; ++v) {
    fp.mix(e.freq(s.freq).frequency(static_cast<stat4::Value>(v)));
  }
  fp.mix(e.alerts_emitted());
  return fp.h;
}

/// The workload's fingerprint, independent of build mode and reporter.  If
/// this changes, either the engine semantics changed (update the constant
/// in the same PR) or telemetry leaked into the data path (fix the leak).
/// Asserted in BOTH -DSTAT4_TELEMETRY=ON and =OFF builds.
constexpr std::uint64_t kGoldenFingerprint = 0xb0f25db8820e842bull;

// ------------------------------------------------- the fleet workload

// The same two phases on a MonitorApp: a rate monitor over 10/8
// (distribution 0) and a checked frequency binding over the last octet of
// the destination (distribution 1), so the burst raises a rate-spike and
// an imbalance digest.
constexpr std::uint32_t kRateDist = 0;
constexpr std::uint32_t kFreqDist = 1;

void configure_monitor(stat4p4::MonitorApp& app) {
  app.install_forward(ip(10, 0, 0, 0), 8, 1);
  app.install_rate_monitor(ip(10, 0, 0, 0), 8, kRateDist,
                           /*interval_ns=*/1000, /*window_size=*/16,
                           /*min_history=*/8);
  stat4p4::FreqBindingSpec spec;
  spec.dst_prefix = ip(10, 0, 0, 0);
  spec.dst_prefix_len = 8;
  spec.dist = kFreqDist;
  spec.min_total = 256;
  app.install_freq_binding(spec);
}

p4sim::Packet monitor_packet(std::size_t i) {
  const stat4::PacketFields f = packet_at(i);
  p4sim::Packet pkt = p4sim::make_udp_packet(ip(1, 1, 1, 1), f.dst_ip,
                                             1000, 2000);
  pkt.ingress_ts = f.timestamp;
  return pkt;
}

/// Every field of every digest, in arrival order.
std::vector<std::uint64_t> digest_words(
    const std::vector<p4sim::Digest>& digests) {
  std::vector<std::uint64_t> words;
  for (const p4sim::Digest& d : digests) {
    words.push_back(d.id);
    words.insert(words.end(), d.payload.begin(), d.payload.end());
    words.push_back(static_cast<std::uint64_t>(d.time));
  }
  return words;
}

/// The register rows the two monitored distributions own: each one's
/// counter row and its cell of every per-distribution array.
std::vector<std::uint64_t> monitored_rows(const stat4p4::MonitorApp& app) {
  const p4sim::RegisterFile& rf = app.sw().registers();
  const stat4p4::Stat4Registers& r = app.regs();
  const std::size_t row = app.config().counter_size;
  std::vector<std::uint64_t> rows;
  for (const std::uint32_t d : {kRateDist, kFreqDist}) {
    const auto counters = rf.cells(r.counters).subspan(d * row, row);
    rows.insert(rows.end(), counters.begin(), counters.end());
    for (const p4sim::RegisterId id :
         {r.n, r.xsum, r.xsumsq, r.var, r.med_pos, r.med_low, r.med_high,
          r.med_init, r.win_anchored, r.win_start, r.win_head, r.win_count,
          r.cur_count, r.alerted, r.hot_value}) {
      rows.push_back(rf.read(id, d));
    }
  }
  return rows;
}

std::uint64_t monitor_fingerprint(const stat4p4::MonitorApp& app,
                                  const std::vector<p4sim::Digest>& digests) {
  Fingerprint fp;
  const std::vector<std::uint64_t> words = digest_words(digests);
  fp.mix(words.size());
  for (const auto w : words) fp.mix(w);
  fp.mix(app.sw().packets_processed());
  fp.mix(app.sw().digests_emitted());
  for (const auto v : monitored_rows(app)) fp.mix(v);
  return fp.h;
}

/// The fleet workload's fingerprint: digest stream, switch counters and
/// monitored register rows, the same whether the packets run on the test
/// thread or on a FleetRunner lane, and in both telemetry builds.
constexpr std::uint64_t kFleetGoldenFingerprint = 0xda1e6f28ede387bdull;

// ------------------------------------------------------------------ tests

TEST(TelemetryDifferential, WorkloadMatchesGoldenFingerprint) {
  const std::uint64_t got = run_sequential();
  EXPECT_EQ(got, kGoldenFingerprint)
      << "fingerprint 0x" << std::hex << got
      << " — engine semantics changed or telemetry perturbed the data path";

  // Guard against a vacuous differential: the workload must actually trip
  // checks, or the fingerprint would only cover distribution counts.
  stat4::Stat4Engine e;
  configure(e);
  for (std::size_t i = 0; i < kSteady + kBurst; ++i) e.process(packet_at(i));
  e.advance_time(kEndTime);
  EXPECT_GE(e.alerts_emitted(), 2u)
      << "burst must raise both spike and imbalance alerts";
}

TEST(TelemetryDifferential, LiveReporterDoesNotPerturbResults) {
  const std::uint64_t quiet = run_sequential();

  // Re-run with a Reporter aggressively polling the global registry (the
  // same registry the instrumentation writes to) from another thread.
  std::uint64_t polled = 0;
  std::uint64_t reports = 0;
  {
    telemetry::Reporter::Options options;
    options.interval = std::chrono::milliseconds(1);
    options.sink = [&reports](const telemetry::Snapshot&) { ++reports; };
    telemetry::Reporter reporter(telemetry::MetricsRegistry::global(),
                                 std::move(options));
    polled = run_sequential();
    reporter.stop();
    reports = reporter.reports_emitted();
  }
  EXPECT_EQ(polled, quiet);
  EXPECT_EQ(polled, kGoldenFingerprint);
  EXPECT_GE(reports, 1u) << "reporter must have actually been running";
}

TEST(TelemetryDifferential, FleetRunUnderPollingMatchesSequential) {
  stat4p4::MonitorApp ref;
  configure_monitor(ref);
  std::vector<p4sim::Digest> ref_digests;
  for (std::size_t i = 0; i < kSteady + kBurst; ++i) {
    const p4sim::SwitchOutput out = ref.sw().process(monitor_packet(i));
    ref_digests.insert(ref_digests.end(), out.digests.begin(),
                       out.digests.end());
  }
  ASSERT_GE(ref_digests.size(), 2u)
      << "burst must raise both spike and imbalance digests";

  telemetry::Reporter::Options options;
  options.interval = std::chrono::milliseconds(1);
  options.sink = [](const telemetry::Snapshot&) {};
  telemetry::Reporter reporter(telemetry::MetricsRegistry::global(),
                               std::move(options));
  stat4p4::MonitorApp app;
  configure_monitor(app);
  std::vector<p4sim::Digest> digests;  // outlives the runner's final stop()
  runtime::FleetRunner::Config cfg;
  cfg.policy = runtime::FleetRunner::Policy::kBlock;
  runtime::FleetRunner runner(cfg);
  runner.add_switch(app);
  runner.set_digest_sink([&digests](control::SwitchId,
                                    const p4sim::Digest& d) {
    digests.push_back(d);
  });
  runner.start();
  for (std::size_t i = 0; i < kSteady + kBurst; ++i) {
    ASSERT_TRUE(runner.inject(0, monitor_packet(i)));
  }
  runner.stop();
  reporter.stop();

  EXPECT_EQ(digest_words(digests), digest_words(ref_digests));
  EXPECT_EQ(app.sw().packets_processed(), ref.sw().packets_processed());
  EXPECT_EQ(app.sw().digests_emitted(), ref.sw().digests_emitted());
  EXPECT_EQ(monitored_rows(app), monitored_rows(ref));
  const std::uint64_t got = monitor_fingerprint(app, digests);
  EXPECT_EQ(got, kFleetGoldenFingerprint)
      << "fingerprint 0x" << std::hex << got
      << " — switch semantics changed or telemetry perturbed the data path";
}

#if STAT4_TELEMETRY_ENABLED
TEST(TelemetryDifferential, InstrumentationActuallyCountsWhenEnabled) {
  auto& packets =
      telemetry::MetricsRegistry::global().counter("stat4.engine.packets");
  const std::uint64_t before = packets.value();
  (void)run_sequential();
  EXPECT_GE(packets.value() - before, kSteady + kBurst);
}
#else
TEST(TelemetryDifferential, KillSwitchOffKeepsRegistryEmpty) {
  (void)run_sequential();
  EXPECT_TRUE(telemetry::MetricsRegistry::global().snapshot().empty());
}
#endif

}  // namespace
