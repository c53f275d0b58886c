// Execution-tier differential replay: every catalog app must produce
// BIT-EXACT output on every execution tier (interpreter / threaded /
// native) against the reference interpreter — same forwarded packets (port
// and bytes), same drops, same digests, same final register state — through
// both the scalar process() drive and the batched process_into() drive
// FleetRunner workers use.  A second suite applies mid-stream table
// mutations and config_gen_ bumps, proving the tiers' invalidation protocol
// (re-lowering on the next packet) never perturbs results.
//
// The native tier degrades to threaded when no host compiler is available;
// the replay is still a valid differential (that IS the shipping behavior),
// and tests/jit_fallback_test.cpp pins down the degradation itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <tuple>
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

const char* tier_tag(ExecTier tier) { return p4sim::to_string(tier); }

/// Replays 800 packets through the reference interpreter (fast path OFF)
/// and a tiered twin, comparing per-packet output and the full final
/// register state.  `batched` drives the twin the way FleetRunner workers
/// do: process_into() with one SwitchOutput whose vectors are reused.
void replay_tier(const std::string& app, ExecTier tier, bool batched,
                 std::uint64_t seed = 42, int packets = 800) {
  const std::shared_ptr<P4Switch> ref = analysis::build_example_mutable(app);
  const std::shared_ptr<P4Switch> got = analysis::build_example_mutable(app);
  ref->set_fast_path(false);
  got->set_fast_path(true);
  got->set_exec_tier(tier);

  const std::string what = app + " (" + tier_tag(tier) + ", " +
                           (batched ? "batch" : "scalar") + ")";
  std::mt19937_64 rng(seed);
  std::mt19937_64 rng_twin(seed);
  p4sim::SwitchOutput reused;
  for (int i = 0; i < packets; ++i) {
    const auto out_ref = ref->process(random_packet(rng, i));
    if (batched) {
      got->process_into(random_packet(rng_twin, i), reused);
      expect_same_output(out_ref, reused,
                         what + " packet " + std::to_string(i));
    } else {
      const auto out_got = got->process(random_packet(rng_twin, i));
      expect_same_output(out_ref, out_got,
                         what + " packet " + std::to_string(i));
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The tier must have actually lowered the pipeline (native may land on
  // threaded when no host compiler exists — still a non-interpreter tier).
  if (tier != ExecTier::kInterpreter) {
    EXPECT_NE(got->active_tier(), ExecTier::kInterpreter) << what;
  }
  expect_same_registers(*ref, *got, what);
}

// The app is held as std::string, not const char*: gtest lists a pointer
// parameter by its address, which moves with ASLR and would give the
// discovered ctest names a different suffix on every build.
using TierParam = std::tuple<std::string, ExecTier>;

class ExecTierDifferential : public ::testing::TestWithParam<TierParam> {};

TEST_P(ExecTierDifferential, ScalarBitExact) {
  replay_tier(std::get<0>(GetParam()), std::get<1>(GetParam()),
              /*batched=*/false);
}

TEST_P(ExecTierDifferential, BatchBitExact) {
  replay_tier(std::get<0>(GetParam()), std::get<1>(GetParam()),
              /*batched=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, ExecTierDifferential,
    ::testing::Combine(
        ::testing::Values("echo", "case_study", "case_study_nomul",
                          "syn_flood", "sparse", "entropy", "value",
                          "mitigation", "reroute", "sketch_hh",
                          "sketch_changer", "sketch_netwide"),
        ::testing::Values(ExecTier::kInterpreter, ExecTier::kThreaded,
                          ExecTier::kNative)),
    [](const ::testing::TestParamInfo<TierParam>& param_info) {
      return std::get<0>(param_info.param) + "_" +
             tier_tag(std::get<1>(param_info.param));
    });

// ---- mid-stream mutation / invalidation survival ---------------------------

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

class ExecTierMutation : public ::testing::TestWithParam<ExecTier> {};

TEST_P(ExecTierMutation, SurvivesMidStreamMutations) {
  // Table contents change underneath the lowered pipeline (at 300: a new
  // binding entry — per-table cache invalidation, no config_gen_ bump) and
  // the whole program is re-installed mid-stream (at 600: set_pipeline —
  // config_gen_ bump, full re-lowering on the next packet).  Both switches
  // receive identical controller writes at the same stream positions;
  // outputs must stay bit-exact throughout.
  const ExecTier tier = GetParam();
  stat4p4::MonitorApp ref_app;
  stat4p4::MonitorApp got_app;
  configure_case_study(ref_app);
  configure_case_study(got_app);
  ref_app.sw().set_fast_path(false);
  got_app.sw().set_fast_path(true);
  got_app.sw().set_exec_tier(tier);

  const std::string what = std::string("case_study mutated (") +
                           tier_tag(tier) + ")";
  std::mt19937_64 rng(7);
  std::mt19937_64 rng_twin(7);
  std::uint64_t compiles_before_bump = 0;
  for (int i = 0; i < 900; ++i) {
    if (i == 300) {
      stat4p4::FreqBindingSpec syn;
      syn.protocol = 6;
      syn.flag_mask = 0x02;
      syn.flag_value = 0x02;
      syn.priority = 10;
      syn.dist = 2;
      syn.mask = 0xFF;
      ref_app.install_freq_binding(syn);
      got_app.install_freq_binding(syn);
    }
    if (i == 600) {
      // Re-installing the same pipeline bumps config_gen_; the tier must
      // re-lower (observable below) without perturbing any output.
      compiles_before_bump = got_app.sw().pipeline_compile_count();
      got_app.sw().set_pipeline(got_app.sw().pipeline());
    }
    const auto out_ref = ref_app.sw().process(random_packet(rng, i));
    const auto out_got = got_app.sw().process(random_packet(rng_twin, i));
    expect_same_output(out_ref, out_got,
                       what + " packet " + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(got_app.sw().pipeline_compile_count(), compiles_before_bump)
      << what << ": config_gen_ bump did not trigger re-lowering";
  expect_same_registers(ref_app.sw(), got_app.sw(), what);
}

INSTANTIATE_TEST_SUITE_P(AllTiers, ExecTierMutation,
                         ::testing::Values(ExecTier::kInterpreter,
                                           ExecTier::kThreaded,
                                           ExecTier::kNative),
                         [](const ::testing::TestParamInfo<ExecTier>& p) {
                           return std::string(tier_tag(p.param));
                         });

}  // namespace
