// Tests for the drill-down controller and the end-to-end case study.
#include <gtest/gtest.h>

#include "control/control.hpp"
#include "p4sim/craft.hpp"
#include "sketch/programs.hpp"

namespace control {
namespace {

using netsim::ControlChannel;
using netsim::Simulator;
using p4sim::ipv4;
using stat4::kMillisecond;
using stat4::kSecond;

// --------------------------------------------------- controller state machine

struct ControllerFixture {
  ControllerFixture() : channel(sim), controller(channel, app, make_cfg()) {}

  static DrillDownController::Config make_cfg() {
    DrillDownController::Config cfg;
    cfg.monitored_prefix = ipv4(10, 0, 0, 0);
    cfg.prefix_len = 8;
    return cfg;
  }

  void push(std::uint32_t id, std::uint64_t dist, std::uint64_t value,
            stat4::TimeNs t) {
    p4sim::Digest d;
    d.id = id;
    d.payload = {dist, value, 0};
    d.time = t;
    channel.push_digest(d);
  }

  Simulator sim;
  stat4p4::MonitorApp app;
  ControlChannel channel;
  DrillDownController controller;
};

TEST(DrillDownController, FullSequence) {
  ControllerFixture f;
  f.push(stat4p4::kDigestRateSpike, 0, 500, 0);
  f.sim.run();
  EXPECT_FALSE(f.controller.done());
  EXPECT_TRUE(f.controller.result().spike_handled_time.has_value());
  EXPECT_EQ(f.app.sw().table(f.app.binding_table()).entry_count(), 1u)
      << "per-/24 binding installed after the table-op latency";

  f.push(stat4p4::kDigestImbalance, 1, 5, f.sim.now());
  f.sim.run();
  EXPECT_EQ(f.controller.result().identified_subnet, 5u);
  EXPECT_FALSE(f.controller.done());

  f.push(stat4p4::kDigestImbalance, 2, 36, f.sim.now());
  f.sim.run();
  EXPECT_TRUE(f.controller.done());
  EXPECT_EQ(f.controller.result().identified_host, 36u);
}

TEST(DrillDownController, IgnoresOutOfOrderDigests) {
  ControllerFixture f;
  // Imbalance digests before any spike alert must be ignored.
  f.push(stat4p4::kDigestImbalance, 1, 5, 0);
  f.sim.run();
  EXPECT_FALSE(f.controller.result().spike_handled_time.has_value());
  EXPECT_EQ(f.app.sw().table(f.app.binding_table()).entry_count(), 0u);
}

TEST(DrillDownController, IgnoresWrongDistribution) {
  ControllerFixture f;
  f.push(stat4p4::kDigestRateSpike, 0, 500, 0);
  f.sim.run();
  // An imbalance digest from the host distribution while watching the
  // subnet distribution is stale — ignored.
  f.push(stat4p4::kDigestImbalance, 2, 9, f.sim.now());
  f.sim.run();
  EXPECT_EQ(f.controller.result().identified_subnet, 0u);
  EXPECT_FALSE(f.controller.done());
}

TEST(DrillDownController, HeavyChangerDigestTriggersWhenAccepted) {
  ControllerFixture f;
  // Default config: changer digests are NOT a trigger.
  f.push(sketch::kDigestHeavyChanger, 0xC0FFEE, 90, 0);
  f.sim.run();
  EXPECT_FALSE(f.controller.result().spike_handled_time.has_value());

  // Opt in: the changer digest starts the same per-/24 drill-down.
  Simulator sim2;
  stat4p4::MonitorApp app2;
  ControlChannel channel2(sim2);
  auto cfg = ControllerFixture::make_cfg();
  cfg.accept_heavy_changer = true;
  DrillDownController controller2(channel2, app2, cfg);
  p4sim::Digest d;
  d.id = sketch::kDigestHeavyChanger;
  d.payload = {0xC0FFEE, 90, 1};
  d.time = 7;
  channel2.push_digest(d);
  sim2.run();
  EXPECT_TRUE(controller2.result().spike_handled_time.has_value());
  ASSERT_TRUE(controller2.result().changer_digest_time.has_value());
  EXPECT_EQ(*controller2.result().changer_digest_time, 7u);
  EXPECT_FALSE(controller2.result().spike_digest_time.has_value());
  EXPECT_EQ(app2.sw().table(app2.binding_table()).entry_count(), 1u);

  // The state machine continues exactly as after a rate-spike trigger.
  d.id = stat4p4::kDigestImbalance;
  d.payload = {1, 5, 0};
  d.time = sim2.now();
  channel2.push_digest(d);
  sim2.run();
  EXPECT_EQ(controller2.result().identified_subnet, 5u);
}

TEST(DrillDownController, ConsensusAnomalyTriggersDrillDown) {
  ControllerFixture f;
  f.controller.on_consensus_anomaly("sw0.delivered", 42);
  f.sim.run();  // table ops ride the latency-modeled channel
  EXPECT_TRUE(f.controller.result().spike_handled_time.has_value());
  ASSERT_TRUE(f.controller.result().ml_trigger_time.has_value());
  EXPECT_EQ(*f.controller.result().ml_trigger_time, 42u);
  EXPECT_EQ(f.controller.result().ml_metric, "sw0.delivered");
  EXPECT_EQ(f.app.sw().table(f.app.binding_table()).entry_count(), 1u);

  // A second consensus anomaly mid-drill-down is ignored.
  f.controller.on_consensus_anomaly("sw1.delivered", 99);
  f.sim.run();
  EXPECT_EQ(*f.controller.result().ml_trigger_time, 42u);
  EXPECT_EQ(f.controller.result().ml_metric, "sw0.delivered");
  EXPECT_EQ(f.app.sw().table(f.app.binding_table()).entry_count(), 1u);

  // The drill-down proceeds to the subnet stage as usual.
  f.push(stat4p4::kDigestImbalance, 1, 9, f.sim.now());
  f.sim.run();
  EXPECT_EQ(f.controller.result().identified_subnet, 9u);
}

TEST(DrillDownController, TableOpsGoThroughChannelLatency) {
  ControllerFixture f;
  f.push(stat4p4::kDigestRateSpike, 0, 500, 0);
  // Run only past the digest delivery: the binding is not yet installed.
  f.sim.run_until(100 * kMillisecond);
  EXPECT_EQ(f.app.sw().table(f.app.binding_table()).entry_count(), 0u);
  f.sim.run();
  EXPECT_EQ(f.app.sw().table(f.app.binding_table()).entry_count(), 1u);
}

// ----------------------------------------------------------- full case study

TEST(CaseStudy, PaperDefaultsDetectAndPinpoint) {
  CaseStudyParams params;
  params.seed = 2021;
  const auto out = run_case_study(params);

  ASSERT_TRUE(out.drill.done()) << "drill-down did not complete";
  EXPECT_TRUE(out.subnet_correct)
      << "identified " << out.drill.identified_subnet << " expected "
      << out.hot_subnet;
  EXPECT_TRUE(out.host_correct)
      << "identified " << out.drill.identified_host << " expected "
      << out.hot_host;

  // "the switch detects the traffic spike in the first interval after the
  // start of the spike": the closing boundary lies within two intervals.
  EXPECT_LT(out.detection_delay, 2 * params.interval_len);

  // "Pinpointing the destination of each spike typically takes 2-3 seconds
  // because of the interaction between the control and data planes."
  EXPECT_GT(out.pinpoint_delay, 1 * kSecond);
  EXPECT_LT(out.pinpoint_delay, 5 * kSecond);
}

TEST(CaseStudy, SeedsVaryTheHotDestination) {
  CaseStudyParams a;
  a.seed = 1;
  CaseStudyParams b;
  b.seed = 99;
  const auto oa = run_case_study(a);
  const auto ob = run_case_study(b);
  ASSERT_TRUE(oa.drill.done());
  ASSERT_TRUE(ob.drill.done());
  // Both correct regardless of which destination was hit.
  EXPECT_TRUE(oa.host_correct);
  EXPECT_TRUE(ob.host_correct);
  EXPECT_TRUE(oa.hot_subnet != ob.hot_subnet ||
              oa.hot_host != ob.hot_host)
      << "different seeds should pick different targets";
}

TEST(CaseStudy, DeterministicForFixedSeed) {
  CaseStudyParams params;
  params.seed = 7;
  const auto a = run_case_study(params);
  const auto b = run_case_study(params);
  EXPECT_EQ(a.spike_start, b.spike_start);
  EXPECT_EQ(a.detection_delay, b.detection_delay);
  EXPECT_EQ(a.pinpoint_delay, b.pinpoint_delay);
  EXPECT_EQ(a.packets_sent, b.packets_sent);

  // Golden outcomes: any change to the simulator, the network or the
  // traffic pump must leave the simulated run bit-identical.
  const auto expect_golden = [](const CaseStudyOutcome& out,
                                 stat4::TimeNs spike_start,
                                 stat4::TimeNs detection_delay,
                                 stat4::TimeNs pinpoint_delay,
                                 std::uint64_t packets_sent,
                                 std::uint64_t events) {
    EXPECT_EQ(out.spike_start, spike_start);
    EXPECT_EQ(out.detection_delay, detection_delay);
    EXPECT_EQ(out.pinpoint_delay, pinpoint_delay);
    EXPECT_EQ(out.packets_sent, packets_sent);
    EXPECT_EQ(out.events, events);
  };
  expect_golden(a, 992639638, 7410362, 2216131648, 601710, 1805097);
  params.seed = 2021;
  expect_golden(run_case_study(params), 1291017442, 5032558, 2217953688,
                609575, 1828692);
}

TEST(CaseStudy, LongIntervalsStillDetect) {
  // The paper sweeps intervals up to 2 seconds and windows down to 10.
  CaseStudyParams params;
  params.seed = 5;
  params.interval_len = 200 * kMillisecond;
  params.window_size = 10;
  params.min_history = 5;
  params.min_warmup = 2 * kSecond;
  params.max_warmup = 3 * kSecond;
  params.deadline = 60 * kSecond;
  const auto out = run_case_study(params);
  ASSERT_TRUE(out.drill.done());
  EXPECT_TRUE(out.host_correct);
  EXPECT_LT(out.detection_delay, 2 * params.interval_len);
}

TEST(CaseStudy, PoissonArrivalsWithTwoSigmaFalsePositive) {
  // Robustness finding: with Poisson arrival variance (sd ~ sqrt(rate) per
  // interval) a 2-sigma per-interval check probed every 8 ms false-alerts
  // within the warmup — the paper's CBR-style generator hides this.
  CaseStudyParams params;
  params.seed = 3;
  params.poisson_arrivals = true;
  params.k_sigma_rate = 2;
  const auto out = run_case_study(params);
  EXPECT_TRUE(out.false_positive)
      << "2-sigma under Poisson is expected to trip before the spike";
}

TEST(CaseStudy, PoissonArrivalsWithFourSigmaRateCheck) {
  // The fix: 4 sigma on the (many-sample) rate check, 2 sigma on the
  // (6-category) frequency checks — which cannot exceed z = sqrt(5) anyway.
  for (const std::uint64_t seed : {1ull, 5ull, 9ull}) {
    CaseStudyParams params;
    params.seed = seed;
    params.poisson_arrivals = true;
    params.k_sigma = 2;
    params.k_sigma_rate = 4;
    const auto out = run_case_study(params);
    EXPECT_FALSE(out.false_positive) << "seed " << seed;
    ASSERT_TRUE(out.drill.done()) << "seed " << seed;
    EXPECT_TRUE(out.host_correct) << "seed " << seed;
    EXPECT_LT(out.detection_delay, 2 * params.interval_len);
  }
}

TEST(CaseStudy, PoissonArrivalsDeterministicForFixedSeed) {
  // Golden outcomes of a Poisson run: every pump step has its own gap, a
  // shape the deterministic-grid goldens above never schedule.  At 4 sigma
  // the frequency checks are blind (see the next test), so the run stops
  // at its deadline after the rate alert.
  CaseStudyParams params;
  params.seed = 7;
  params.poisson_arrivals = true;
  params.k_sigma = 4;
  params.k_sigma_rate = 4;
  params.deadline = 3 * kSecond;
  const auto out = run_case_study(params);
  EXPECT_FALSE(out.drill.done());
  EXPECT_FALSE(out.false_positive);
  EXPECT_EQ(out.spike_start, 992639638);
  EXPECT_EQ(out.detection_delay, 7416084);
  EXPECT_EQ(out.pinpoint_delay, 0);
  EXPECT_EQ(out.packets_sent, 526402u);
  EXPECT_EQ(out.events, 1579172u);
}

TEST(CaseStudy, FrequencyCheckBlindAboveSqrtNMinusOneSigma) {
  // The detectability bound: with six categories, even a point mass tops
  // out at z = sqrt(5) ~ 2.24, so a 3-sigma frequency check can never fire
  // and the drill-down stalls after the rate alert.
  CaseStudyParams params;
  params.seed = 2021;
  params.k_sigma = 3;       // frequency checks: blind
  params.k_sigma_rate = 2;  // rate check unchanged
  params.deadline = 10 * kSecond;
  const auto out = run_case_study(params);
  EXPECT_TRUE(out.drill.spike_digest_time.has_value());
  EXPECT_FALSE(out.drill.done())
      << "imbalance digest must never fire at 3 sigma with N = 6";
}

TEST(CaseStudy, InvalidParamsRejected) {
  CaseStudyParams bad;
  bad.spike_factor = 1.0;
  EXPECT_THROW((void)run_case_study(bad), std::invalid_argument);
  CaseStudyParams bad2;
  bad2.window_size = 100000;
  EXPECT_THROW((void)run_case_study(bad2), std::invalid_argument);
  CaseStudyParams bad3;
  bad3.num_subnets = 0;
  EXPECT_THROW((void)run_case_study(bad3), std::invalid_argument);
}

}  // namespace
}  // namespace control
