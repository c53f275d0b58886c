// Guarded runs on the threaded tier (threaded_compile pass 4).
//
// The threaded tier puts work whose result only matters while some select
// condition, `and` operand or digest condition is non-zero behind a
// skip-if-zero handler.  A skipped op leaves its temp holding whatever the
// switch's persistent scratch held before — often the previous packet's
// value — so these tests drive multi-packet streams through real switches
// and compare every observable against the reference interpreter:
//
//   1. a random-IR fuzz loop (tests/support/ir_gen.hpp, biased toward
//      guarded blocks) over 240 seeds, two random actions that read each
//      other's temps plus an exporter that digests every packet field;
//   2. focused cases: a guarded def another action reads stays
//      unconditional, a guard whose temp is rewritten later in non-SSA IR
//      is still tested before the rewrite, and window_tick stays bit-exact
//      while its guard alternates packet by packet;
//   3. structural pins: window_tick puts at least 60 ops behind skip
//      handlers, and the sketch programs (whose guardable work is too thin
//      to pay for a handler) are lowered without any.
#include <gtest/gtest.h>

#include <bitset>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "p4sim/p4sim.hpp"
#include "sketch/apps.hpp"
#include "stat4/types.hpp"
#include "stat4p4/stat4p4.hpp"
#include "support/guard_fuzz.hpp"

namespace {

using p4sim::ExecTier;
using p4sim::FieldRef;
using p4sim::Op;
using p4sim::P4Switch;
using p4sim::Packet;
using p4sim::Program;
using p4sim::ProgramBuilder;
using p4sim::TempId;
using p4sim::Word;

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
    ASSERT_EQ(ref.digests[i].id, got.digests[i].id) << what << " #" << i;
    ASSERT_EQ(ref.digests[i].payload, got.digests[i].payload)
        << what << " digest #" << i << " id " << ref.digests[i].id;
    ASSERT_EQ(ref.digests[i].time, got.digests[i].time) << what;
  }
}

void expect_same_registers(const P4Switch& ref, const P4Switch& got,
                           const std::string& what) {
  const p4sim::RegisterFile& a = ref.registers();
  const p4sim::RegisterFile& b = got.registers();
  ASSERT_EQ(a.array_count(), b.array_count()) << what;
  for (p4sim::RegisterId r = 0; r < a.array_count(); ++r) {
    for (std::uint64_t i = 0; i < a.info(r).size; ++i) {
      ASSERT_EQ(a.read(r, i), b.read(r, i))
          << what << ": register " << a.info(r).name << "[" << i << "]";
    }
  }
}

using test_support::observable_of;

/// Lowers the switch's action named `name` exactly as the switch would.
p4sim::ThreadedProgram lower_action(P4Switch& sw, const std::string& name) {
  for (std::size_t a = 0; a < sw.action_count(); ++a) {
    const Program& prog = sw.action(static_cast<p4sim::ActionId>(a));
    if (prog.name == name) {
      return p4sim::threaded_compile(prog, sw.registers(), observable_of(sw));
    }
  }
  ADD_FAILURE() << "no action named " << name;
  return {};
}

Packet random_packet(std::mt19937_64& rng, stat4::TimeNs ts) {
  Packet pkt;
  switch (rng() % 4) {
    case 0:
      pkt = p4sim::make_echo_packet(static_cast<std::int64_t>(rng() % 512) -
                                    256);
      break;
    case 1:
      pkt = p4sim::make_tcp_packet(
          static_cast<std::uint32_t>(rng()), static_cast<std::uint32_t>(rng()),
          static_cast<std::uint16_t>(rng()), static_cast<std::uint16_t>(rng()),
          static_cast<std::uint8_t>(rng()), 64 + rng() % 256);
      break;
    default:
      pkt = p4sim::make_udp_packet(
          static_cast<std::uint32_t>(rng()), static_cast<std::uint32_t>(rng()),
          static_cast<std::uint16_t>(rng()), static_cast<std::uint16_t>(rng()),
          64 + rng() % 256);
      break;
  }
  pkt.ingress_port = static_cast<p4sim::PortId>(rng() % 4);
  pkt.ingress_ts = ts;
  return pkt;
}

TEST(GuardedRuns, RandomIrMatchesInterpreterAcrossPacketStreams) {
  const test_support::IrGenOptions opt = test_support::guard_fuzz_options();
  int guarded_programs = 0;
  for (std::uint64_t seed = 1; seed <= test_support::kGuardFuzzSeeds; ++seed) {
    Program first;
    const auto ref = test_support::fuzz_switch(seed, opt, &first);
    const auto got = test_support::fuzz_switch(seed, opt, nullptr);
    ref->set_exec_tier(ExecTier::kReference);  // fresh temps per packet
    got->set_exec_tier(ExecTier::kThreaded);
    if (p4sim::threaded_compile(first, got->registers(), observable_of(*got))
            .guarded_ops > 0) {
      ++guarded_programs;
    }
    std::mt19937_64 rng(seed);
    std::mt19937_64 rng_twin(seed);
    for (int i = 0; i < 24; ++i) {
      const std::string what =
          "seed " + std::to_string(seed) + " packet " + std::to_string(i);
      const auto out_ref = ref->process(random_packet(rng, i * 1000));
      const auto out_got = got->process(random_packet(rng_twin, i * 1000));
      expect_same_output(out_ref, out_got, what);
      expect_same_registers(*ref, *got, what);
      if (HasFatalFailure()) return;
    }
    ASSERT_EQ(got->active_tier(), ExecTier::kThreaded);
  }
  // The bias must actually exercise the mechanism.
  EXPECT_GE(guarded_programs, 100);
}

/// A chain of `len` steps on `x`, two pure ops each; `steps` gets each
/// step's result.  Returns the last one.
TempId chain(ProgramBuilder& b, TempId x, int len,
             std::vector<TempId>& steps) {
  const TempId three = b.konst(3);
  for (int k = 0; k < len; ++k) {
    x = k % 2 == 0 ? b.add(b.shl(x, three), x) : b.bxor(x, b.shr(x, three));
    steps.push_back(x);
  }
  return x;
}

TEST(GuardedRuns, DefReadByAnotherActionStaysUnconditional) {
  // Action "produce" computes a chain that only matters while param 0 is
  // non-zero — except that action "consume" reads one of its temps before
  // writing it, so that def must run on every packet.
  std::vector<TempId> temps;
  ProgramBuilder pb("produce");
  const TempId on = pb.param(0);
  const TempId src = pb.load_field(FieldRef::kIpv4Src);
  const TempId out = chain(pb, src, 12, temps);
  const TempId old = pb.load_reg(0, pb.konst(0));
  pb.store_reg(0, pb.konst(0), pb.select(on, out, old));
  Program produce = pb.take();
  const TempId shared = temps[5];

  Program consume;
  consume.name = "consume";
  consume.code.push_back({Op::kConst, 2000, 0, 0, 0, 1});
  consume.code.push_back({Op::kStoreReg, 0, 2000, shared, 0, 0,
                          FieldRef::kEthType, 0});

  const auto build = [&](std::vector<Word> on_data) {
    auto sw = std::make_unique<P4Switch>("cross");
    (void)sw->declare_register("r", 2, 64);
    const auto pa = sw->add_action(produce);
    const auto ca = sw->add_action(consume);
    const auto t = sw->add_table(
        "t", {p4sim::KeySpec{FieldRef::kMetaIngressPort,
                             p4sim::MatchKind::kExact}});
    sw->table(t).set_default_action(pa, std::move(on_data));
    sw->add_table_stage(t);
    sw->add_program_stage(ca);
    return sw;
  };
  for (const Word on_value : {Word{0}, Word{1}}) {
    const auto ref = build({on_value});
    const auto got = build({on_value});
    ref->set_exec_tier(ExecTier::kReference);
    got->set_exec_tier(ExecTier::kThreaded);
    // The run exists, but the shared def and everything it needs run first.
    const p4sim::ThreadedProgram lowered = lower_action(*got, "produce");
    std::bitset<p4sim::kTempCount> local;
    const std::size_t without_reader =
        p4sim::threaded_compile(produce, got->registers(), local).guarded_ops;
    EXPECT_GT(lowered.guarded_ops, 0u);
    EXPECT_LT(lowered.guarded_ops, without_reader);
    std::mt19937_64 rng(7);
    std::mt19937_64 rng_twin(7);
    for (int i = 0; i < 16; ++i) {
      const std::string what = "on=" + std::to_string(on_value) + " packet " +
                               std::to_string(i);
      expect_same_output(ref->process(random_packet(rng, i)),
                         got->process(random_packet(rng_twin, i)), what);
      expect_same_registers(*ref, *got, what);
      if (HasFatalFailure()) return;
    }
    EXPECT_NE(got->registers().read(0, 1), 0u);  // the shared value landed
  }
}

TEST(GuardedRuns, GuardTempRewrittenAfterItsRunOpensKeepsItsValue) {
  // Non-SSA IR: G is written twice.  x1..x11 only matter while
  // H = G & Y is non-zero, so they are guarded by G's first value.  x9 also
  // reads G's second value, so opening the run at x1 must not hoist the
  // second write of G above the skip handler that tests G.
  constexpr TempId kP0 = 1, kP1 = 2, kY = 3, kQ0 = 4, kQ1 = 5, kS = 6,
                   kIdx0 = 7, kIdx1 = 8, kG = 10, kH = 20, kZ = 30;
  Program prog;
  prog.name = "reused_guard";
  auto& code = prog.code;
  for (TempId t : {kP0, kP1, kY, kQ0, kQ1}) {
    code.push_back({Op::kParam, t, 0, 0, 0, Word{t} - 1});
  }
  code.push_back({Op::kLoadField, kS, 0, 0, 0, 0, FieldRef::kIpv4Src});
  code.push_back({Op::kConst, kIdx0, 0, 0, 0, 0});
  code.push_back({Op::kConst, kIdx1, 0, 0, 0, 1});
  code.push_back({Op::kLt, kG, kP0, kP1});
  code.push_back({Op::kStoreReg, 0, kIdx0, kG});
  // x1..x8 = temps 11..18, x9..x11 = temps 21..23.
  code.push_back({Op::kAdd, 11, kS, kS});
  for (TempId x = 12; x <= 18; ++x) {
    code.push_back({x % 2 == 0 ? Op::kXor : Op::kAdd, x,
                    static_cast<TempId>(x - 1), kS});
  }
  code.push_back({Op::kAnd, kH, kG, kY});
  code.push_back({Op::kNe, kG, kQ0, kQ1});
  code.push_back({Op::kStoreField, 0, kG, 0, 0, 0, FieldRef::kIpv4Ttl});
  code.push_back({Op::kAdd, 21, 18, kG});
  code.push_back({Op::kXor, 22, 21, kS});
  code.push_back({Op::kAdd, 23, 22, 21});
  code.push_back({Op::kSelect, kZ, kH, 23, kS});
  code.push_back({Op::kStoreReg, 0, kIdx1, kZ});

  // Per ingress port: {p0, p1, Y, q0, q1}.  Port 0 has G's first value
  // true, Y true and G's second value false: the chain is needed while the
  // rewritten guard temp reads zero.
  const std::vector<std::vector<Word>> data = {
      {1, 2, 1, 5, 5}, {1, 2, 1, 5, 6}, {2, 1, 1, 5, 5}, {1, 2, 0, 5, 5}};
  const auto build = [&] {
    auto sw = std::make_unique<P4Switch>("reuse");
    (void)sw->declare_register("r", 2, 64);
    const auto action = sw->add_action(prog);
    const auto t = sw->add_table(
        "t", {p4sim::KeySpec{FieldRef::kMetaIngressPort,
                             p4sim::MatchKind::kExact}});
    for (Word port = 0; port < data.size(); ++port) {
      p4sim::TableEntry e;
      p4sim::KeyMatch km;
      km.value = port;
      e.key.push_back(km);
      e.action = action;
      e.action_data = data[port];
      (void)sw->table(t).insert(std::move(e));
    }
    sw->add_table_stage(t);
    return sw;
  };
  const auto ref = build();
  const auto got = build();
  ref->set_exec_tier(ExecTier::kReference);
  got->set_exec_tier(ExecTier::kThreaded);
  ASSERT_GT(lower_action(*got, "reused_guard").guarded_ops, 0u);
  std::mt19937_64 rng(5);
  for (int i = 0; i < 32; ++i) {
    Packet pkt = p4sim::make_udp_packet(static_cast<std::uint32_t>(rng()),
                                        p4sim::ipv4(10, 0, 0, 1), 1, 2);
    pkt.ingress_port = static_cast<p4sim::PortId>(rng() % data.size());
    Packet twin = pkt;
    const std::string what = "packet " + std::to_string(i);
    expect_same_output(ref->process(std::move(pkt)),
                       got->process(std::move(twin)), what);
    expect_same_registers(*ref, *got, what);
    if (HasFatalFailure()) return;
  }
  ASSERT_EQ(got->active_tier(), ExecTier::kThreaded);
}

TEST(GuardedRuns, AlternatingGuardStaysBitExactWithoutStaleTemps) {
  // window_tick's roll work sits behind `rolled`: interval boundaries make
  // the guard true on one packet, false on the next, true again — and the
  // skipped packets leave the previous roll's temps in the scratch.
  constexpr stat4::TimeNs kLen = 1000;
  const auto build = [] {
    auto app = std::make_unique<stat4p4::MonitorApp>();
    app->install_forward(p4sim::ipv4(10, 0, 0, 0), 8, 1);
    app->install_rate_monitor(p4sim::ipv4(10, 0, 0, 0), 8, 0, kLen, 4, 2,
                              /*stall_check=*/true);
    return app;
  };
  const auto ref = build();
  const auto got = build();
  ref->sw().set_exec_tier(ExecTier::kReference);
  got->sw().set_exec_tier(ExecTier::kThreaded);
  ASSERT_GE(lower_action(got->sw(), "window_tick").guarded_ops, 60u);
  // Per interval, a burst whose size swings from 1 to 40 packets, so the
  // rolls see spikes and stalls: guard true on the first packet of each
  // interval, false on the rest.
  std::mt19937_64 rng(11);
  int digests = 0;
  for (int interval = 0; interval < 60; ++interval) {
    const int burst = interval % 7 == 6 ? 40 : 1 + static_cast<int>(rng() % 6);
    for (int k = 0; k < burst; ++k) {
      const stat4::TimeNs ts = interval * kLen + k;
      Packet pkt = p4sim::make_udp_packet(p4sim::ipv4(8, 8, 8, 8),
                                          p4sim::ipv4(10, 0, 1, 1), 1, 2);
      pkt.ingress_ts = ts;
      Packet twin = pkt;
      const auto out_ref = ref->sw().process(std::move(pkt));
      const auto out_got = got->sw().process(std::move(twin));
      const std::string what = "interval " + std::to_string(interval) +
                               " packet " + std::to_string(k);
      expect_same_output(out_ref, out_got, what);
      expect_same_registers(ref->sw(), got->sw(), what);
      if (HasFatalFailure()) return;
      digests += static_cast<int>(out_got.digests.size());
    }
  }
  EXPECT_GT(digests, 0);  // the alert paths behind the guard did run
}

TEST(GuardedRuns, WindowTickPutsItsRollWorkBehindSkips) {
  stat4p4::MonitorApp app;
  const p4sim::ThreadedProgram lowered = lower_action(app.sw(), "window_tick");
  EXPECT_GE(lowered.guarded_ops, 60u);
  EXPECT_LT(lowered.guarded_ops, lowered.ops.size());
}

TEST(GuardedRuns, SketchProgramsKeepTheirUnguardedStreams) {
  // Their guardable work (count-sketch's fire chain, the invertible epoch
  // id) is shorter than a run worth a skip handler, so both lower exactly
  // as without the pass: no skip op is inserted, nothing is reordered.
  sketch::SketchApp cs(sketch::SketchKind::kCountSketch);
  EXPECT_EQ(lower_action(cs.sw(), "sketch_count_sketch").guarded_ops, 0u);
  sketch::SketchApp inv(sketch::SketchKind::kInvertible);
  EXPECT_EQ(lower_action(inv.sw(), "sketch_invertible").guarded_ops, 0u);
}

}  // namespace
