// Execution-tier differential replay: every catalog app must produce
// BIT-EXACT output on every execution tier (threaded / native) against
// the kReference walker — same forwarded packets (port and bytes), same
// drops, same digests, same final register state — through both the
// scalar process() drive and the batched process_into() drive FleetRunner
// workers use.  A second suite applies mid-stream table
// mutations and config_gen_ bumps, proving the tiers' invalidation protocol
// (re-lowering on the next packet) never perturbs results, and replays
// pipelines that exercise the compiled walker's branches no catalog app
// reaches: guards past the invariant-slot cap, a guard on a field an
// earlier stage writes, table actions naming an unknown action id and
// actions naming an undeclared register array.  The forms switch
// (tests/support/forms_switch.hpp) replays the threaded op forms no
// catalog app lowers to at the boundary values around their constant.
//
// The native tier degrades to threaded when no host compiler is available;
// the replay is still a valid differential (that IS the shipping behavior),
// and tests/jit_fallback_test.cpp pins down the degradation itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/analysis.hpp"
#include "p4sim/p4sim.hpp"
#include "stat4/types.hpp"
#include "stat4p4/stat4p4.hpp"
#include "support/forms_switch.hpp"

namespace {

using p4sim::ExecTier;
using p4sim::FieldRef;
using p4sim::Guard;
using p4sim::ipv4;
using p4sim::P4Switch;
using p4sim::Packet;
using p4sim::ProgramBuilder;
using p4sim::TempId;

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

/// The switch lowered its pipeline to the requested tier, or to threaded
/// when the native tier fell back (no host compiler).
void expect_ran_on(const P4Switch& sw, ExecTier tier, const std::string& what) {
  const ExecTier active = sw.active_tier();
  EXPECT_TRUE(active == tier ||
              (tier == ExecTier::kNative && active == ExecTier::kThreaded))
      << what << ": requested " << tier_tag(tier) << ", ran "
      << tier_tag(active);
}

/// Replays 800 packets through the reference walker (kReference) and a
/// tiered twin, comparing per-packet output and the full final
/// register state.  `batched` drives the twin the way FleetRunner workers
/// do: process_into() with one SwitchOutput whose vectors are reused.
void replay_tier(const std::string& app, ExecTier tier, bool batched,
                 std::uint64_t seed = 42, int packets = 800) {
  const std::shared_ptr<P4Switch> ref = analysis::build_example_mutable(app);
  const std::shared_ptr<P4Switch> got = analysis::build_example_mutable(app);
  ref->set_exec_tier(ExecTier::kReference);
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
  expect_ran_on(*got, tier, what);
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
        ::testing::Values(ExecTier::kThreaded, ExecTier::kNative)),
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
  ref_app.sw().set_exec_tier(ExecTier::kReference);
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

// ---- walker branches no catalog app reaches -------------------------------

/// Replays 400 packets with ingress ports drawn from [0, ports) through a
/// kReference switch and a twin on `tier`, both made by `build`, comparing
/// per-packet output and the final registers.
template <typename Build>
void replay_ports(const Build& build, ExecTier tier, unsigned ports,
                  const std::string& what) {
  const std::unique_ptr<P4Switch> ref = build();
  const std::unique_ptr<P4Switch> got = build();
  ref->set_exec_tier(ExecTier::kReference);
  got->set_exec_tier(tier);
  std::mt19937_64 rng(3);
  for (int i = 0; i < 400; ++i) {
    Packet pkt = random_packet(rng, i);
    pkt.ingress_port = static_cast<p4sim::PortId>(rng() % ports);
    Packet twin = pkt;
    const auto out_ref = ref->process(std::move(pkt));
    const auto out_got = got->process(std::move(twin));
    expect_same_output(out_ref, out_got,
                       what + " packet " + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
  expect_same_registers(*ref, *got, what);
}

Guard guard_on(FieldRef field, Guard::Cmp cmp, p4sim::Word value) {
  Guard g;
  g.field = field;
  g.cmp = cmp;
  g.value = value;
  return g;
}

TEST_P(ExecTierMutation, GuardsPastInvariantSlotCapStayBitExact) {
  // 20 stages guarded on distinct ingress ports, past the 16 invariant
  // guard slots: the last 4 guards get no slot and are evaluated per stage.
  // Each stage counts its port and forwards to a port of its own.
  constexpr unsigned kStages = 20;
  const auto build = [] {
    auto sw = std::make_unique<P4Switch>("many_guards");
    const p4sim::RegisterId hits = sw->declare_register("hits", kStages);
    for (unsigned port = 0; port < kStages; ++port) {
      ProgramBuilder b("port" + std::to_string(port));
      const TempId cell = b.konst(port);
      b.store_reg(hits, cell, b.add(b.load_reg(hits, cell), b.konst(1)));
      b.store_field(FieldRef::kMetaEgressSpec, b.konst(port + 2));
      sw->add_program_stage(
          sw->add_action(b.take()),
          guard_on(FieldRef::kMetaIngressPort, Guard::Cmp::kEq, port));
    }
    return sw;
  };
  replay_ports(build, GetParam(), kStages + 4,
               std::string("20 port guards (") + tier_tag(GetParam()) + ")");
}

TEST_P(ExecTierMutation, WritableGuardIsReevaluatedPerStage) {
  // Stage 1 forwards ingress ports 0-3 and drops the rest by writing
  // meta.egress_spec; stages 2 and 3 are guarded on that field, so their
  // guards must read stage 1's write, not the packet-entry value (0).
  const auto build = [] {
    auto sw = std::make_unique<P4Switch>("writable_guard");
    const p4sim::RegisterId seen = sw->declare_register("seen", 2);

    ProgramBuilder route("route");
    const TempId port = route.load_field(FieldRef::kMetaIngressPort);
    route.store_field(FieldRef::kMetaEgressSpec,
                      route.select(route.lt(port, route.konst(4)),
                                   route.add(port, route.konst(1)),
                                   route.konst(0)));
    sw->add_program_stage(sw->add_action(route.take()));

    for (const bool forwarded : {true, false}) {
      ProgramBuilder b(forwarded ? "count_forwarded" : "count_dropped");
      const TempId cell = b.konst(forwarded ? 0 : 1);
      b.store_reg(seen, cell, b.add(b.load_reg(seen, cell), b.konst(1)));
      if (forwarded) {
        b.store_field(FieldRef::kMetaEgressSpec,
                      b.add(b.load_field(FieldRef::kMetaEgressSpec),
                            b.konst(10)));
      }
      sw->add_program_stage(
          sw->add_action(b.take()),
          guard_on(FieldRef::kMetaEgressSpec,
                   forwarded ? Guard::Cmp::kNe : Guard::Cmp::kEq, 0));
    }
    return sw;
  };
  replay_ports(build, GetParam(), 8,
               std::string("egress guard (") + tier_tag(GetParam()) + ")");
}

TEST_P(ExecTierMutation, UnknownActionIdThrowsOutOfRange) {
  // A table entry and a default action that name action ids no add_action
  // returned: a packet resolving to either throws std::out_of_range, on
  // the reference walker and on every tier alike.
  for (const ExecTier tier : {ExecTier::kReference, GetParam()}) {
    P4Switch sw("unknown_action");
    ProgramBuilder b("forward");
    b.store_field(FieldRef::kMetaEgressSpec, b.konst(2));
    const p4sim::ActionId forward = sw.add_action(b.take());
    const p4sim::TableId t = sw.add_table(
        "t", {p4sim::KeySpec{FieldRef::kIpv4Dst, p4sim::MatchKind::kExact}});
    p4sim::TableEntry hit;
    hit.key = {p4sim::KeyMatch{}};
    hit.key[0].value = ipv4(10, 0, 0, 1);
    hit.action = forward + 7;
    (void)sw.table(t).insert(hit);
    sw.table(t).set_default_action(forward + 9, {});
    sw.add_table_stage(t);
    sw.set_exec_tier(tier);
    for (const std::uint32_t dst : {ipv4(10, 0, 0, 1), ipv4(10, 0, 0, 2)}) {
      EXPECT_THROW((void)sw.process(p4sim::make_udp_packet(ipv4(1, 1, 1, 1),
                                                           dst, 1, 2)),
                   std::out_of_range)
          << tier_tag(tier) << (dst == ipv4(10, 0, 0, 1) ? " hit" : " miss");
    }
  }
}

TEST_P(ExecTierMutation, UndeclaredRegisterArrayThrowsOutOfRange) {
  // An action that loads from, or stores to, a register array id past
  // array_count() throws std::out_of_range, on the reference walker and on
  // every tier alike.  The native tier's transpiler refuses such a
  // pipeline, so that switch runs it on the threaded tier.
  for (const ExecTier tier : {ExecTier::kReference, GetParam()}) {
    for (const bool store : {false, true}) {
      P4Switch sw("undeclared_register");
      const p4sim::RegisterId undeclared = sw.declare_register("r", 4) + 1;
      ProgramBuilder b(store ? "store" : "load");
      const TempId index = b.konst(1);
      if (store) {
        b.store_reg(undeclared, index, b.konst(5));
      } else {
        b.store_field(FieldRef::kMetaEgressSpec, b.load_reg(undeclared, index));
      }
      sw.add_program_stage(sw.add_action(b.take()));
      sw.set_exec_tier(tier);
      EXPECT_THROW((void)sw.process(p4sim::make_udp_packet(
                       ipv4(1, 1, 1, 1), ipv4(10, 0, 0, 1), 1, 2)),
                   std::out_of_range)
          << tier_tag(tier) << (store ? " store" : " load");
      if (tier == ExecTier::kNative) {
        EXPECT_EQ(sw.active_tier(), ExecTier::kThreaded)
            << (store ? "store" : "load");
      }
    }
  }
}

TEST_P(ExecTierMutation, FormsMatchReferenceAtBoundaryValues) {
  // Each comparison of the forms action runs with its operands at 0, 1,
  // k - 1, k, k + 1 and 2^64 - 1 around its constant k, in every pairing;
  // the registers hold every select's result after each packet.
  const ExecTier tier = GetParam();
  const auto ref = test_support::forms_switch(/*with_undeclared=*/false);
  const auto got = test_support::forms_switch(/*with_undeclared=*/false);
  ref->set_exec_tier(ExecTier::kReference);
  got->set_exec_tier(tier);
  const std::vector<p4sim::Word> values =
      test_support::forms_boundary_values();
  for (const p4sim::Word x : values) {
    for (const p4sim::Word y : values) {
      test_support::set_forms_operands(*ref, x, y);
      test_support::set_forms_operands(*got, x, y);
      const Packet pkt = p4sim::make_udp_packet(ipv4(1, 1, 1, 1),
                                                ipv4(10, 0, 0, 1), 1, 2);
      const std::string what = std::string("forms (") + tier_tag(tier) +
                               ") x=" + std::to_string(x) +
                               " y=" + std::to_string(y);
      expect_same_output(ref->process(pkt), got->process(pkt), what);
      expect_same_registers(*ref, *got, what);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  expect_ran_on(*got, tier, "forms");
}

INSTANTIATE_TEST_SUITE_P(AllTiers, ExecTierMutation,
                         ::testing::Values(ExecTier::kThreaded,
                                           ExecTier::kNative),
                         [](const ::testing::TestParamInfo<ExecTier>& p) {
                           return std::string(tier_tag(p.param));
                         });

}  // namespace
