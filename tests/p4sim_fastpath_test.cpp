// Differential test: the compiled fast path ≡ the reference interpreter.
//
// Two identically configured switches — one with the compiled dispatch
// vector / compiled table caches (the default), one on ExecTier::kReference
// (per-packet fresh context, linear table scans) — are fed
// the same randomized stream while the controller rewrites table state
// mid-stream (insert / modify / remove / set_default_action).  Every
// output (forwarded packets, ports, drops, digests, register state) must
// be bit-identical, and the compile counters must show the caches being
// invalidated and rebuilt rather than serving stale entries.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "p4sim/p4sim.hpp"

namespace p4sim {
namespace {

struct Fixture {
  RegisterId counter = 0;
  ActionId fwd = 0;
  ActionId drop = 0;
  ActionId mark = 0;
  TableId lpm = 0;
  TableId tern = 0;
};

/// An L3-ish pipeline: a ternary ACL over (proto, dst), then an LPM route
/// table, then a direct program that decrements TTL and counts.
Fixture configure(P4Switch& sw) {
  Fixture f;
  f.counter = sw.declare_register("pkt_count", 4);

  ProgramBuilder fb("forward");
  fb.store_field(FieldRef::kMetaEgressSpec, fb.param(0));
  f.fwd = sw.add_action(fb.take());

  ProgramBuilder db("drop");
  db.store_field(FieldRef::kMetaEgressSpec, db.konst(0));
  f.drop = sw.add_action(db.take());

  // Sets TTL from action data and emits a digest carrying the dst address.
  ProgramBuilder mb("mark");
  mb.store_field(FieldRef::kIpv4Ttl, mb.param(0));
  const TempId one = mb.konst(1);
  mb.digest_if(one, 9, mb.load_field(FieldRef::kIpv4Dst), one, one);
  f.mark = sw.add_action(mb.take());

  f.tern = sw.add_table("acl", {KeySpec{FieldRef::kIpv4Proto,
                                        MatchKind::kTernary},
                                KeySpec{FieldRef::kIpv4Dst,
                                        MatchKind::kTernary}});
  ProgramBuilder nb("noop");
  (void)nb.konst(0);
  const ActionId noop = sw.add_action(nb.take());
  sw.table(f.tern).set_default_action(noop, {});

  f.lpm = sw.add_table("route",
                       {KeySpec{FieldRef::kIpv4Dst, MatchKind::kLpm}});
  sw.table(f.lpm).set_default_action(f.drop, {});

  Guard g;
  g.field = FieldRef::kIpv4Valid;
  g.cmp = Guard::Cmp::kNe;
  g.value = 0;
  sw.add_table_stage(f.tern, g);
  sw.add_table_stage(f.lpm, g);

  ProgramBuilder cb("count");
  const TempId zero = cb.konst(0);
  const TempId c = cb.load_reg(f.counter, zero);
  cb.store_reg(f.counter, zero, cb.add(c, cb.konst(1)));
  const ActionId count = sw.add_action(cb.take());
  sw.add_program_stage(count, g);
  return f;
}

TableEntry lpm_entry(std::uint32_t value, std::uint8_t plen, ActionId action,
                     std::vector<Word> data) {
  KeyMatch km;
  km.value = value;
  km.prefix_len = plen;
  TableEntry e;
  e.key = {km};
  e.action = action;
  e.action_data = std::move(data);
  return e;
}

TableEntry acl_entry(std::uint8_t proto, std::uint32_t dst,
                     std::uint32_t dst_mask, std::int32_t prio,
                     ActionId action, std::vector<Word> data) {
  KeyMatch kp;
  kp.value = proto;
  kp.mask = proto == 0 ? 0 : 0xFF;
  KeyMatch kd;
  kd.value = dst;
  kd.mask = dst_mask;
  TableEntry e;
  e.key = {kp, kd};
  e.action = action;
  e.action_data = std::move(data);
  e.priority = prio;
  return e;
}

void expect_same_output(const SwitchOutput& a, const SwitchOutput& b,
                        std::size_t pkt_index) {
  SCOPED_TRACE(::testing::Message() << "packet " << pkt_index);
  ASSERT_EQ(a.dropped, b.dropped);
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (std::size_t i = 0; i < a.packets.size(); ++i) {
    EXPECT_EQ(a.packets[i].first, b.packets[i].first);
    EXPECT_EQ(a.packets[i].second.data, b.packets[i].second.data);
  }
  ASSERT_EQ(a.digests.size(), b.digests.size());
  for (std::size_t i = 0; i < a.digests.size(); ++i) {
    EXPECT_EQ(a.digests[i].id, b.digests[i].id);
    EXPECT_EQ(a.digests[i].payload, b.digests[i].payload);
  }
}

TEST(P4FastPath, MatchesReferenceAcrossMidStreamTableWrites) {
  P4Switch fast("fast");
  P4Switch ref("ref");
  const Fixture ff = configure(fast);
  const Fixture rf = configure(ref);
  ASSERT_NE(fast.exec_tier(), ExecTier::kReference);
  ref.set_exec_tier(ExecTier::kReference);

  // Seed routes: two nested prefixes (LPM tie-break matters) + a host route.
  for (P4Switch* sw : {&fast, &ref}) {
    const Fixture& f = sw == &fast ? ff : rf;
    sw->table(f.lpm).insert(lpm_entry(ipv4(10, 0, 0, 0), 8, f.fwd, {2}));
    sw->table(f.lpm).insert(lpm_entry(ipv4(10, 1, 0, 0), 16, f.fwd, {3}));
    sw->table(f.lpm).insert(lpm_entry(ipv4(10, 1, 2, 3), 32, f.fwd, {4}));
    sw->table(f.tern).insert(
        acl_entry(17, ipv4(10, 9, 0, 0), 0xFFFF0000u, 10, f.drop, {}));
  }

  std::mt19937_64 rng(99);
  auto random_packet = [&rng]() {
    const std::uint32_t dst =
        rng() % 4 == 0 ? ipv4(10, 1, 2, 3)
                       : (0x0A000000u | static_cast<std::uint32_t>(rng() %
                                                                   0x00FFFFFF));
    return make_udp_packet(static_cast<std::uint32_t>(rng()), dst,
                           static_cast<std::uint16_t>(rng() % 0xFFFF), 8080);
  };

  std::vector<EntryHandle> fast_handles;
  std::vector<EntryHandle> ref_handles;
  const std::uint64_t compiles_before =
      fast.table(ff.lpm).compile_count();

  for (std::size_t i = 0; i < 3000; ++i) {
    // Mid-stream controller writes, between packets — each must invalidate
    // the compiled state so packet i+1 sees the new config on both paths.
    if (i == 500) {
      fast_handles.push_back(fast.table(ff.lpm).insert(
          lpm_entry(ipv4(10, 2, 0, 0), 16, ff.fwd, {5})));
      ref_handles.push_back(ref.table(rf.lpm).insert(
          lpm_entry(ipv4(10, 2, 0, 0), 16, rf.fwd, {5})));
    }
    if (i == 1000) {
      fast.table(ff.lpm).modify(
          fast_handles[0], lpm_entry(ipv4(10, 2, 0, 0), 16, ff.mark, {17}));
      ref.table(rf.lpm).modify(
          ref_handles[0], lpm_entry(ipv4(10, 2, 0, 0), 16, rf.mark, {17}));
    }
    if (i == 1500) {
      fast.table(ff.lpm).remove(fast_handles[0]);
      ref.table(rf.lpm).remove(ref_handles[0]);
    }
    if (i == 2000) {
      // Default action flip: misses forward to port 6 instead of dropping.
      fast.table(ff.lpm).set_default_action(ff.fwd, {7});
      ref.table(rf.lpm).set_default_action(rf.fwd, {7});
    }
    if (i == 2500) {
      // ACL flip: UDP to 10.9/16 stops being dropped, TCP-any starts.
      fast.table(ff.tern).insert(
          acl_entry(6, 0, 0, 20, ff.drop, {}));
      ref.table(rf.tern).insert(
          acl_entry(6, 0, 0, 20, rf.drop, {}));
    }
    Packet pkt = random_packet();
    Packet dup = pkt;
    const SwitchOutput a = fast.process(std::move(pkt));
    const SwitchOutput b = ref.process(std::move(dup));
    expect_same_output(a, b, i);
  }

  for (std::uint32_t cell = 0; cell < 4; ++cell) {
    EXPECT_EQ(fast.registers().read(ff.counter, cell),
              ref.registers().read(rf.counter, cell));
  }
  EXPECT_EQ(fast.packets_processed(), ref.packets_processed());
  EXPECT_EQ(fast.digests_emitted(), ref.digests_emitted());
  // Each of the 4 LPM writes dirtied the cache; each next lookup rebuilt it.
  EXPECT_GE(fast.table(ff.lpm).compile_count(), compiles_before + 4)
      << "table writes must invalidate the compiled entry cache";
}

TEST(P4FastPath, TogglingFastPathMidStreamIsSeamless) {
  // Switches between the compiled default tier and kReference every 100
  // packets; each switch re-lowers the pipeline on the next packet.
  P4Switch sw("toggle");
  const Fixture f = configure(sw);
  sw.table(f.lpm).insert(lpm_entry(ipv4(10, 0, 0, 0), 8, f.fwd, {2}));

  P4Switch ref("ref");
  const Fixture rf = configure(ref);
  ref.table(rf.lpm).insert(lpm_entry(ipv4(10, 0, 0, 0), 8, rf.fwd, {2}));
  ref.set_exec_tier(ExecTier::kReference);

  std::mt19937_64 rng(7);
  for (std::size_t i = 0; i < 600; ++i) {
    if (i % 100 == 0) {
      sw.set_exec_tier(sw.exec_tier() == ExecTier::kReference
                           ? default_exec_tier()
                           : ExecTier::kReference);
    }
    const std::uint32_t dst =
        0x0A000000u | static_cast<std::uint32_t>(rng() % 0xFFFF);
    Packet pkt = make_udp_packet(1, dst, 5, 6);
    Packet dup = pkt;
    const SwitchOutput a = sw.process(std::move(pkt));
    const SwitchOutput b = ref.process(std::move(dup));
    expect_same_output(a, b, i);
  }
  EXPECT_EQ(sw.registers().read(f.counter, 0),
            ref.registers().read(rf.counter, 0));
}

TEST(P4FastPath, ReferenceTierIsSelectableByName) {
  ASSERT_EQ(parse_exec_tier("reference"), ExecTier::kReference);
  EXPECT_STREQ(to_string(ExecTier::kReference), "reference");
  // Only "reference" selects the op-by-op interpreter.
  EXPECT_FALSE(parse_exec_tier("interp").has_value());
  EXPECT_FALSE(parse_exec_tier("interpreter").has_value());
  P4Switch sw("named");
  const Fixture f = configure(sw);
  sw.table(f.lpm).insert(lpm_entry(ipv4(10, 0, 0, 0), 8, f.fwd, {2}));
  sw.set_exec_tier(ExecTier::kReference);
  const SwitchOutput out =
      sw.process(make_udp_packet(1, ipv4(10, 0, 0, 1), 5, 6));
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(out.packets[0].first, 1);
  EXPECT_EQ(sw.active_tier(), ExecTier::kReference);
}

TEST(P4FastPath, LateStageAdditionRebuildsDispatchVector) {
  // Adding a pipeline stage AFTER packets have flowed must invalidate the
  // compiled dispatch vector (config generation bump), not keep executing
  // the stale stage list.
  P4Switch sw("grow");
  const Fixture f = configure(sw);
  sw.table(f.lpm).insert(lpm_entry(ipv4(10, 0, 0, 0), 8, f.fwd, {2}));

  Packet warm = make_udp_packet(1, ipv4(10, 0, 0, 1), 5, 6);
  const SwitchOutput before = sw.process(std::move(warm));
  ASSERT_EQ(before.packets.size(), 1u);
  ASSERT_EQ(before.packets[0].first, 1);

  // New stage: unconditionally reroute to port 9 (stored +1).
  ProgramBuilder rb("reroute");
  rb.store_field(FieldRef::kMetaEgressSpec, rb.konst(10));
  const ActionId reroute = sw.add_action(rb.take());
  sw.add_program_stage(reroute);

  Packet after_pkt = make_udp_packet(1, ipv4(10, 0, 0, 1), 5, 6);
  const SwitchOutput after = sw.process(std::move(after_pkt));
  ASSERT_EQ(after.packets.size(), 1u);
  EXPECT_EQ(after.packets[0].first, 9)
      << "stale dispatch vector: the new stage did not run";
}

TEST(P4FastPath, CompiledLookupMatchesLinearOnPriorityTies) {
  // Equal-priority ternary entries resolve by insertion order; the compiled
  // first-match scan must preserve that via the stable sort.
  P4Switch sw("ties");
  const Fixture f = configure(sw);
  sw.table(f.tern).insert(acl_entry(17, 0, 0, 5, f.drop, {}));
  sw.table(f.tern).insert(acl_entry(17, 0, 0, 5, f.mark, {42}));
  sw.table(f.lpm).insert(lpm_entry(ipv4(10, 0, 0, 0), 8, f.fwd, {2}));

  Packet pkt = make_udp_packet(1, ipv4(10, 0, 0, 1), 5, 6);
  ParsedPacket parsed = parse(pkt);
  PacketView view;
  view.parsed = &parsed;
  const MatchResult compiled = sw.table(f.tern).lookup(view);
  const MatchResult linear = sw.table(f.tern).lookup_linear(view);
  ASSERT_TRUE(compiled.hit);
  ASSERT_TRUE(linear.hit);
  EXPECT_EQ(compiled.handle, linear.handle);
  EXPECT_EQ(compiled.action, linear.action);
  EXPECT_EQ(compiled.action, f.drop) << "first-inserted must win the tie";
}

}  // namespace
}  // namespace p4sim
