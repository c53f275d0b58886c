// Optimizer differential replay: every catalog app, optimized, must stay
// BIT-EXACT against its unoptimized twin on identical packet streams — same
// forwarded packets (port and bytes), same drops, same digests, same final
// register state — with the optimized pipeline exercised both through the
// reference tier and through the process-default compiled tier.  A second suite
// replays the Section 4 case study with mid-stream table mutations applied
// identically to both switches, which is exactly the situation the
// pass framework's "any future table configuration" doctrine must survive.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "p4sim/p4sim.hpp"
#include "stat4/types.hpp"
#include "stat4p4/stat4p4.hpp"

namespace {

using p4sim::ExecTier;
using p4sim::ipv4;
using p4sim::P4Switch;
using p4sim::Packet;

Packet random_packet(std::mt19937_64& rng, stat4::TimeNs ts) {
  // Mix of traffic every app's matchers see: echo frames, TCP with and
  // without SYN, UDP, across /24s and hosts inside and outside 10/8.
  Packet pkt;
  switch (rng() % 8) {
    case 0:
      pkt = p4sim::make_echo_packet(static_cast<std::int64_t>(rng() % 4096) -
                                    2048);
      break;
    case 1:
      pkt = p4sim::make_udp_packet(
          ipv4(192, 168, 0, static_cast<unsigned>(rng() % 256)),
          ipv4(172, 16, 0, 1), 53, 53);
      break;
    default: {
      const auto subnet = static_cast<unsigned>(rng() % 8);
      const auto host = static_cast<unsigned>(rng() % 256);
      const std::uint32_t dst = ipv4(10, 0, subnet, host);
      if (rng() % 2 == 0) {
        const std::uint8_t flags =
            rng() % 3 == 0 ? p4sim::kTcpSyn : p4sim::kTcpAck;
        pkt = p4sim::make_tcp_packet(ipv4(1, 1, 1, 1), dst, 1000, 80, flags,
                                     64 + rng() % 512);
      } else {
        pkt = p4sim::make_udp_packet(ipv4(1, 1, 1, 1), dst, 1000, 80,
                                     64 + rng() % 512);
      }
      break;
    }
  }
  pkt.ingress_ts = ts;
  return pkt;
}

void expect_same_output(const p4sim::SwitchOutput& ref,
                        const p4sim::SwitchOutput& got,
                        const std::string& what) {
  ASSERT_EQ(ref.dropped, got.dropped) << what;
  ASSERT_EQ(ref.packets.size(), got.packets.size()) << what;
  for (std::size_t i = 0; i < ref.packets.size(); ++i) {
    ASSERT_EQ(ref.packets[i].first, got.packets[i].first) << what;
    ASSERT_EQ(ref.packets[i].second.data, got.packets[i].second.data) << what;
  }
  ASSERT_EQ(ref.digests.size(), got.digests.size()) << what;
  for (std::size_t i = 0; i < ref.digests.size(); ++i) {
    ASSERT_EQ(ref.digests[i].id, got.digests[i].id) << what;
    ASSERT_EQ(ref.digests[i].payload, got.digests[i].payload) << what;
    ASSERT_EQ(ref.digests[i].time, got.digests[i].time) << what;
  }
}

void expect_same_registers(const P4Switch& ref, const P4Switch& got,
                           const std::string& what) {
  const p4sim::RegisterFile& a = ref.registers();
  const p4sim::RegisterFile& b = got.registers();
  ASSERT_EQ(a.array_count(), b.array_count()) << what;
  for (p4sim::RegisterId r = 0; r < a.array_count(); ++r) {
    const p4sim::RegisterArrayInfo& info = a.info(r);
    for (std::uint64_t i = 0; i < info.size; ++i) {
      ASSERT_EQ(a.read(r, i), b.read(r, i))
          << what << ": register " << info.name << "[" << i << "]";
    }
  }
}

/// Replays `packets` through the reference switch (kReference) and an
/// optimized twin on `optimized_tier`, comparing per-packet output and the
/// full final register state.
void replay(const std::string& app, ExecTier optimized_tier,
            std::uint64_t seed = 42, int packets = 800) {
  const std::shared_ptr<P4Switch> ref = analysis::build_example_mutable(app);
  const std::shared_ptr<P4Switch> opt = analysis::build_example_mutable(app);
  ref->set_exec_tier(ExecTier::kReference);
  opt->set_exec_tier(optimized_tier);

  const analysis::OptimizeResult result = analysis::optimize_switch(*opt);
  EXPECT_TRUE(result.fixpoint) << app;
  EXPECT_TRUE(analysis::verify_switch(*opt, analysis::AnalysisOptions{}).ok())
      << app;

  const std::string what =
      app + " (" + p4sim::to_string(optimized_tier) + ")";
  std::mt19937_64 rng(seed);
  std::mt19937_64 rng_twin(seed);
  for (int i = 0; i < packets; ++i) {
    const auto out_ref = ref->process(random_packet(rng, i));
    const auto out_opt = opt->process(random_packet(rng_twin, i));
    expect_same_output(out_ref, out_opt,
                       what + " packet " + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
  expect_same_registers(*ref, *opt, what);
}

class OptimizerDifferential
    : public ::testing::TestWithParam<const char*> {};

TEST_P(OptimizerDifferential, InterpreterBitExact) {
  replay(GetParam(), ExecTier::kReference);
}

TEST_P(OptimizerDifferential, FastPathBitExact) {
  replay(GetParam(), p4sim::default_exec_tier());
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, OptimizerDifferential,
    ::testing::Values("echo", "case_study", "case_study_nomul", "syn_flood",
                      "sparse", "entropy", "value", "mitigation", "reroute",
                      "sketch_hh", "sketch_changer", "sketch_netwide"),
    [](const ::testing::TestParamInfo<const char*>& param_info) {
      return std::string(param_info.param);
    });

// ---- mid-stream table mutations -------------------------------------------

stat4p4::FreqBindingSpec per24_binding() {
  stat4p4::FreqBindingSpec spec;
  spec.dst_prefix = ipv4(10, 0, 0, 0);
  spec.dst_prefix_len = 8;
  spec.dist = 1;
  spec.shift = 8;
  return spec;
}

void configure_case_study(stat4p4::MonitorApp& app) {
  app.install_forward(ipv4(10, 0, 0, 0), 8, 1);
  app.install_rate_monitor(
      ipv4(10, 0, 0, 0), 8, 0,
      8 * static_cast<std::uint64_t>(stat4::kMillisecond), 100, 8);
  app.install_freq_binding(per24_binding());
}

TEST(OptimizerDifferential, SurvivesMidStreamTableMutations) {
  // The optimizer rewrites action BODIES; table contents keep changing
  // underneath it.  Both switches receive identical controller writes at
  // the same stream positions; outputs must stay bit-exact throughout.
  stat4p4::MonitorApp ref_app;
  stat4p4::MonitorApp opt_app;
  configure_case_study(ref_app);
  configure_case_study(opt_app);
  ref_app.sw().set_exec_tier(ExecTier::kReference);

  const auto result = analysis::optimize_switch(opt_app.sw());
  EXPECT_TRUE(result.changed());

  std::mt19937_64 rng(7);
  std::mt19937_64 rng_twin(7);
  for (int i = 0; i < 900; ++i) {
    if (i == 300) {
      // Controller installs a new binding mid-stream on both switches: the
      // optimized actions must serve entries added AFTER optimization.
      stat4p4::FreqBindingSpec syn;
      syn.protocol = 6;
      syn.flag_mask = 0x02;
      syn.flag_value = 0x02;
      syn.priority = 10;
      syn.dist = 2;
      syn.mask = 0xFF;
      ref_app.install_freq_binding(syn);
      opt_app.install_freq_binding(syn);
    }
    if (i == 600) {
      // And a second optimizer run mid-stream (idempotent, but it still
      // goes through replace_action/set_pipeline) must not disturb state.
      const auto again = analysis::optimize_switch(opt_app.sw());
      EXPECT_FALSE(again.changed());
    }
    const auto out_ref = ref_app.sw().process(random_packet(rng, i));
    const auto out_opt = opt_app.sw().process(random_packet(rng_twin, i));
    expect_same_output(out_ref, out_opt, "packet " + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
  expect_same_registers(ref_app.sw(), opt_app.sw(), "case_study mutated");
}

}  // namespace
