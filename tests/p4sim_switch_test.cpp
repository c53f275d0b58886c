// Tests for the assembled switch: pipeline, guards, forwarding, digests,
// registers and the dependency analyzer.
#include <gtest/gtest.h>

#include "p4sim/p4sim.hpp"
#include "telemetry/metrics.hpp"

namespace p4sim {
namespace {

/// A minimal L3 switch: forward 10/8 to port 1, drop the rest, and count
/// every forwarded packet in a register.
struct MiniSwitch {
  MiniSwitch() : sw("mini") {
    counter = sw.declare_register("pkt_count", 1);

    ProgramBuilder fwd("forward");
    const TempId port = fwd.param(0);
    fwd.store_field(FieldRef::kMetaEgressSpec, port);
    const TempId zero = fwd.konst(0);
    const TempId c = fwd.load_reg(counter, zero);
    const TempId one = fwd.konst(1);
    fwd.store_reg(counter, zero, fwd.add(c, one));
    forward = sw.add_action(fwd.take());

    ProgramBuilder drp("drop");
    drp.store_field(FieldRef::kMetaEgressSpec, drp.konst(0));
    drop = sw.add_action(drp.take());

    table = sw.add_table("l3", {KeySpec{FieldRef::kIpv4Dst, MatchKind::kLpm}});
    sw.table(table).set_default_action(drop, {});
    Guard g;
    g.field = FieldRef::kIpv4Valid;
    g.cmp = Guard::Cmp::kNe;
    g.value = 0;
    sw.add_table_stage(table, g);

    TableEntry e;
    KeyMatch km;
    km.value = ipv4(10, 0, 0, 0);
    km.prefix_len = 8;
    e.key = {km};
    e.action = forward;
    e.action_data = {2};  // port 1 (stored +1)
    sw.table(table).insert(e);
  }

  P4Switch sw;
  RegisterId counter = 0;
  ActionId forward = 0;
  ActionId drop = 0;
  TableId table = 0;
};

TEST(P4Switch, ForwardsMatchingPacket) {
  MiniSwitch m;
  auto out = m.sw.process(make_udp_packet(1, ipv4(10, 0, 5, 6), 7, 8));
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(out.packets[0].first, 1);
  EXPECT_FALSE(out.dropped);
  EXPECT_EQ(m.sw.registers().read(m.counter, 0), 1u);
}

TEST(P4Switch, DropsNonMatchingPacket) {
  MiniSwitch m;
  auto out = m.sw.process(make_udp_packet(1, ipv4(192, 168, 0, 1), 7, 8));
  EXPECT_TRUE(out.dropped);
  EXPECT_TRUE(out.packets.empty());
  EXPECT_EQ(m.sw.registers().read(m.counter, 0), 0u);
}

TEST(P4Switch, GuardSkipsNonIpv4) {
  MiniSwitch m;
  auto out = m.sw.process(make_echo_packet(3));
  EXPECT_TRUE(out.dropped) << "echo frame skips the guarded L3 stage";
  EXPECT_EQ(m.sw.registers().read(m.counter, 0), 0u);
}

TEST(P4Switch, PacketCounterAccumulates) {
  MiniSwitch m;
  for (int i = 0; i < 10; ++i) {
    (void)m.sw.process(make_udp_packet(1, ipv4(10, 1, 1, 1), 7, 8));
  }
  EXPECT_EQ(m.sw.registers().read(m.counter, 0), 10u);
  EXPECT_EQ(m.sw.packets_processed(), 10u);
}

TEST(P4Switch, DigestsSurfaceInOutput) {
  P4Switch sw("digester");
  ProgramBuilder b("alert");
  const TempId one = b.konst(1);
  const TempId v = b.load_field(FieldRef::kIpv4Dst);
  b.digest_if(one, 5, v, one, one);
  b.store_field(FieldRef::kMetaEgressSpec, b.konst(0));
  const auto act = sw.add_action(b.take());
  sw.add_program_stage(act);

  auto out = sw.process(make_udp_packet(1, ipv4(10, 0, 5, 6), 7, 8));
  ASSERT_EQ(out.digests.size(), 1u);
  EXPECT_EQ(out.digests[0].id, 5u);
  EXPECT_EQ(out.digests[0].payload[0], ipv4(10, 0, 5, 6));
  EXPECT_EQ(sw.digests_emitted(), 1u);
}

TEST(P4Switch, MutatedHeadersAreDeparsed) {
  P4Switch sw("ttl");
  ProgramBuilder b("decrement_ttl");
  const TempId ttl = b.load_field(FieldRef::kIpv4Ttl);
  const TempId one = b.konst(1);
  b.store_field(FieldRef::kIpv4Ttl, b.sub(ttl, one));
  const TempId inport = b.load_field(FieldRef::kMetaIngressPort);
  b.store_field(FieldRef::kMetaEgressSpec, b.add(inport, one));
  const auto act = sw.add_action(b.take());
  Guard g;
  g.field = FieldRef::kIpv4Valid;
  sw.add_program_stage(act, g);

  Packet in = make_udp_packet(1, 2, 3, 4);
  in.ingress_port = 4;
  auto out = sw.process(std::move(in));
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(out.packets[0].first, 4);
  const auto parsed = parse(out.packets[0].second);
  EXPECT_EQ(parsed.ipv4->ttl, 63);  // 64 - 1, visible on the wire
}

TEST(P4Switch, InvalidConfigurationThrows) {
  P4Switch sw("cfg");
  EXPECT_THROW(sw.add_table_stage(0), std::out_of_range);
  EXPECT_THROW(sw.add_program_stage(0), std::out_of_range);
  EXPECT_THROW((void)sw.table(0), std::out_of_range);
  EXPECT_THROW((void)sw.action(0), std::out_of_range);
}

TEST(P4Switch, ProfileValidatedAtActionRegistration) {
  P4Switch sw("nomul", AluProfile::hardware_no_mul());
  ProgramBuilder b("mul");
  const TempId r = b.mul(b.konst(2), b.konst(3));
  b.store_field(FieldRef::kMetaEgressSpec, r);
  EXPECT_THROW(sw.add_action(b.take()), std::invalid_argument);
}

TEST(P4Switch, ReplaceActionBetweenPacketsRelowersOnce) {
#if !STAT4_TELEMETRY_ENABLED
  GTEST_SKIP() << "telemetry is compiled out";
#else
  // The registry is process-global, so compare deltas.
  telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::global();
  const auto relowers = [&] { return reg.counter("p4sim.relowers").value(); };
  const auto timed = [&] {
    return reg.histogram("p4sim.relower_ns").snapshot().count;
  };
  MiniSwitch m;
  (void)m.sw.process(make_udp_packet(1, ipv4(10, 0, 5, 6), 7, 8));
  const std::uint64_t relowers_before = relowers();
  const std::uint64_t timed_before = timed();
  m.sw.replace_action(m.drop, Program(m.sw.action(m.drop)));
  (void)m.sw.process(make_udp_packet(1, ipv4(10, 0, 5, 6), 7, 8));
  EXPECT_EQ(relowers() - relowers_before, 1u);
  EXPECT_EQ(timed() - timed_before, 1u);
#endif
}

// ------------------------------------------------------ dependency analyzer

TEST(Dependency, StraightChainDepth) {
  // t1 = 1; t2 = t1+1; t3 = t2+1  -> chain of 3.
  ProgramBuilder b("chain");
  TempId t = b.konst(1);
  t = b.add(t, t);
  t = b.add(t, t);
  const auto a = analyze_program(b.take());
  EXPECT_EQ(a.longest_chain, 3u);
  EXPECT_EQ(a.instructions, 3u);
}

TEST(Dependency, IndependentOpsDoNotDeepen) {
  ProgramBuilder b("parallel");
  (void)b.konst(1);
  (void)b.konst(2);
  (void)b.konst(3);
  const auto a = analyze_program(b.take());
  EXPECT_EQ(a.longest_chain, 1u);
  EXPECT_EQ(a.instructions, 3u);
}

TEST(Dependency, RegisterAccessesSerialize) {
  // Read-modify-write on one register array must serialize: load, add,
  // store is a 3-deep chain even if temps were independent.
  ProgramBuilder b("rmw");
  const TempId zero = b.konst(0);
  const TempId v = b.load_reg(0, zero);
  const TempId one = b.konst(1);
  const TempId v2 = b.add(v, one);
  b.store_reg(0, zero, v2);
  const auto a = analyze_program(b.take());
  EXPECT_GE(a.longest_chain, 3u);
  EXPECT_EQ(a.register_reads, 1u);
  EXPECT_EQ(a.register_writes, 1u);
}

TEST(Dependency, MulDetected) {
  ProgramBuilder b("m");
  (void)b.mul(b.konst(2), b.konst(3));
  EXPECT_TRUE(analyze_program(b.take()).uses_mul);
  ProgramBuilder b2("nm");
  (void)b2.approx_mul(b2.konst(2), b2.konst(3));
  EXPECT_FALSE(analyze_program(b2.take()).uses_mul);
}

TEST(Dependency, SwitchAnalysisAggregates) {
  MiniSwitch m;
  const auto s = analyze_switch(m.sw);
  EXPECT_EQ(s.tables, 1u);
  EXPECT_EQ(s.table_entries, 1u);
  EXPECT_EQ(s.register_arrays, 1u);
  EXPECT_EQ(s.state_bytes, 8u);  // one 64-bit cell
  EXPECT_EQ(s.pipeline_stages, 1u);
  EXPECT_EQ(s.programs.size(), 2u);
  EXPECT_GT(s.longest_action_chain, 0u);
}

TEST(Dependency, MatchDependencyDetected) {
  // Stage 1 writes a field that stage 2 matches on -> one dependency; the
  // paper's analysis counts the same relation between its two rules.
  P4Switch sw("dep");
  ProgramBuilder w("write_ttl");
  w.store_field(FieldRef::kIpv4Ttl, w.konst(7));
  const auto writer = sw.add_action(w.take());

  ProgramBuilder nop("noop");
  (void)nop.konst(0);
  const auto noop = sw.add_action(nop.take());

  const auto t = sw.add_table(
      "match_ttl", {KeySpec{FieldRef::kIpv4Ttl, MatchKind::kExact}});
  sw.table(t).set_default_action(noop, {});

  sw.add_program_stage(writer);
  sw.add_table_stage(t);
  const auto s = analyze_switch(sw);
  EXPECT_EQ(s.match_dependencies, 1u);
}

TEST(Dependency, IndependentStagesHaveNoMatchDependency) {
  P4Switch sw("indep");
  ProgramBuilder a1("count");
  const TempId z = a1.konst(0);
  (void)a1.load_reg(0, z);
  const auto count = sw.add_action(a1.take());

  ProgramBuilder nop("noop");
  (void)nop.konst(0);
  const auto noop = sw.add_action(nop.take());

  const auto t = sw.add_table(
      "by_dst", {KeySpec{FieldRef::kIpv4Dst, MatchKind::kLpm}});
  sw.table(t).set_default_action(noop, {});

  sw.add_program_stage(count);
  sw.add_table_stage(t);
  EXPECT_EQ(analyze_switch(sw).match_dependencies, 0u);
}

}  // namespace
}  // namespace p4sim
