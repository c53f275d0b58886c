// Tests for match-action tables: exact, LPM, ternary, priorities, runtime.
#include <gtest/gtest.h>

#include "p4sim/craft.hpp"
#include "p4sim/table.hpp"

namespace p4sim {
namespace {

/// View over a fixed UDP packet to 10.0.5.6 with protocol 17.
struct ViewFixture {
  ViewFixture() {
    pkt = make_udp_packet(ipv4(172, 16, 1, 1), ipv4(10, 0, 5, 6), 1000, 53);
    parsed = parse(pkt);
    view.parsed = &parsed;
  }
  Packet pkt;
  ParsedPacket parsed;
  PacketView view;
};

KeyMatch exact(Word v) {
  KeyMatch k;
  k.value = v;
  return k;
}

KeyMatch lpm(Word v, std::uint8_t len) {
  KeyMatch k;
  k.value = v;
  k.prefix_len = len;
  return k;
}

KeyMatch ternary(Word v, Word mask) {
  KeyMatch k;
  k.value = v;
  k.mask = mask;
  return k;
}

TEST(Table, ExactMatchHitAndMiss) {
  MatchActionTable t("t", {KeySpec{FieldRef::kIpv4Dst, MatchKind::kExact}});
  TableEntry e;
  e.key = {exact(ipv4(10, 0, 5, 6))};
  e.action = 3;
  e.action_data = {42};
  t.insert(e);

  ViewFixture f;
  const auto hit = t.lookup(f.view);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.action, 3u);
  ASSERT_EQ(hit.action_data.size(), 1u);
  EXPECT_EQ(hit.action_data[0], 42u);

  f.parsed.ipv4->dst = ipv4(10, 0, 5, 7);
  const auto miss = t.lookup(f.view);
  EXPECT_FALSE(miss.hit);
}

TEST(Table, DefaultActionOnMiss) {
  MatchActionTable t("t", {KeySpec{FieldRef::kIpv4Dst, MatchKind::kExact}});
  t.set_default_action(9, {7});
  ViewFixture f;
  const auto r = t.lookup(f.view);
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(r.action, 9u);
  EXPECT_EQ(r.action_data[0], 7u);
}

TEST(Table, LpmPrefersLongestPrefix) {
  MatchActionTable t("t", {KeySpec{FieldRef::kIpv4Dst, MatchKind::kLpm}});
  TableEntry slash8;
  slash8.key = {lpm(ipv4(10, 0, 0, 0), 8)};
  slash8.action = 1;
  TableEntry slash24;
  slash24.key = {lpm(ipv4(10, 0, 5, 0), 24)};
  slash24.action = 2;
  t.insert(slash8);
  t.insert(slash24);

  ViewFixture f;  // dst 10.0.5.6 matches both
  EXPECT_EQ(t.lookup(f.view).action, 2u);

  f.parsed.ipv4->dst = ipv4(10, 0, 9, 1);  // only the /8
  EXPECT_EQ(t.lookup(f.view).action, 1u);
}

TEST(Table, LpmZeroLengthIsWildcard) {
  MatchActionTable t("t", {KeySpec{FieldRef::kIpv4Dst, MatchKind::kLpm}});
  TableEntry any;
  any.key = {lpm(0, 0)};
  any.action = 5;
  t.insert(any);
  ViewFixture f;
  EXPECT_TRUE(t.lookup(f.view).hit);
}

TEST(Table, LpmMasksWithinTheKeyFieldsWidth) {
  // A /8 on a 16-bit port covers its high byte: 0x1200/8 is 0x1200-0x12FF.
  // Both the compiled cache and the reference scan take the width from the
  // key field's row in field_info(), not from a 32-bit default.
  MatchActionTable t("t", {KeySpec{FieldRef::kUdpDstPort, MatchKind::kLpm}});
  TableEntry e;
  e.key = {lpm(0x1200, 8)};
  e.action = 6;
  t.insert(e);

  ViewFixture f;
  f.parsed.udp->dst_port = 0x12AB;
  EXPECT_TRUE(t.lookup(f.view).hit);
  EXPECT_TRUE(t.lookup_linear(f.view).hit);
  f.parsed.udp->dst_port = 0x13AB;
  EXPECT_FALSE(t.lookup(f.view).hit);
  EXPECT_FALSE(t.lookup_linear(f.view).hit);
}

TEST(Table, TernaryWithPriority) {
  MatchActionTable t("t", {KeySpec{FieldRef::kTcpFlags, MatchKind::kTernary}});
  TableEntry syn;
  syn.key = {ternary(0x02, 0x02)};
  syn.action = 1;
  syn.priority = 10;
  TableEntry any;
  any.key = {ternary(0, 0)};
  any.action = 2;
  any.priority = 1;
  t.insert(any);
  t.insert(syn);

  Packet pkt = make_tcp_packet(1, 2, 3, 4, kTcpSyn);
  ParsedPacket parsed = parse(pkt);
  PacketView v;
  v.parsed = &parsed;
  EXPECT_EQ(t.lookup(v).action, 1u) << "SYN entry outranks the wildcard";

  parsed.tcp->flags = kTcpAck;
  EXPECT_EQ(t.lookup(v).action, 2u) << "non-SYN falls to the wildcard";
}

TEST(Table, MultiFieldKey) {
  MatchActionTable t("t", {KeySpec{FieldRef::kIpv4Dst, MatchKind::kLpm},
                           KeySpec{FieldRef::kIpv4Proto, MatchKind::kTernary}});
  TableEntry udp_only;
  udp_only.key = {lpm(ipv4(10, 0, 0, 0), 8), ternary(17, 0xFF)};
  udp_only.action = 4;
  t.insert(udp_only);

  ViewFixture f;  // UDP to 10.0.5.6
  EXPECT_TRUE(t.lookup(f.view).hit);
  f.parsed.ipv4->protocol = 6;
  EXPECT_FALSE(t.lookup(f.view).hit);
}

TEST(Table, ArityMismatchRejected) {
  MatchActionTable t("t", {KeySpec{FieldRef::kIpv4Dst, MatchKind::kExact}});
  TableEntry e;
  e.key = {exact(1), exact(2)};
  EXPECT_THROW(t.insert(e), std::invalid_argument);
}

TEST(Table, CapacityEnforced) {
  MatchActionTable t("t", {KeySpec{FieldRef::kIpv4Dst, MatchKind::kExact}}, 2);
  TableEntry e;
  e.key = {exact(1)};
  t.insert(e);
  e.key = {exact(2)};
  t.insert(e);
  e.key = {exact(3)};
  EXPECT_THROW(t.insert(e), std::length_error);
}

TEST(Table, ModifyRetargetsEntry) {
  // The drill-down step: same handle, new extraction parameters.
  MatchActionTable t("t", {KeySpec{FieldRef::kIpv4Dst, MatchKind::kLpm}});
  TableEntry e;
  e.key = {lpm(ipv4(10, 0, 0, 0), 8)};
  e.action = 1;
  e.action_data = {100};
  const auto h = t.insert(e);

  e.key = {lpm(ipv4(10, 0, 5, 0), 24)};
  e.action_data = {200};
  t.modify(h, e);

  ViewFixture f;
  const auto r = t.lookup(f.view);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.action_data[0], 200u);
  EXPECT_EQ(r.handle, h);
}

TEST(Table, RemoveDeletesEntry) {
  MatchActionTable t("t", {KeySpec{FieldRef::kIpv4Dst, MatchKind::kLpm}});
  TableEntry e;
  e.key = {lpm(ipv4(10, 0, 0, 0), 8)};
  const auto h = t.insert(e);
  EXPECT_EQ(t.entry_count(), 1u);
  t.remove(h);
  EXPECT_EQ(t.entry_count(), 0u);
  ViewFixture f;
  EXPECT_FALSE(t.lookup(f.view).hit);
  EXPECT_THROW(t.remove(h), std::out_of_range);
  EXPECT_THROW(t.modify(h, e), std::out_of_range);
}

}  // namespace
}  // namespace p4sim
