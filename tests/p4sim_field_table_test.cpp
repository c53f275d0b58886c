// The field table (p4sim::field_info) against the hand-written
// PacketView::get/set it describes: every FieldRef, on a UDP, a TCP, an
// echo and an Ethernet-only frame.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>
#include <string>

#include "p4sim/craft.hpp"
#include "p4sim/parser.hpp"

namespace p4sim {
namespace {

Packet ethernet_only_frame() {
  Packet pkt;
  pkt.data.assign(EthernetHeader::kSize, 0);
  EthernetHeader eth;
  eth.ether_type = 0x0806;  // ARP: the parser stops after Ethernet
  serialize(eth, pkt.data, 0);
  return pkt;
}

std::array<Packet, 4> frames() {
  return {make_udp_packet(ipv4(10, 0, 0, 1), ipv4(10, 0, 5, 6), 1000, 53),
          make_tcp_packet(ipv4(10, 0, 0, 2), ipv4(10, 0, 7, 8), 4000, 80,
                          kTcpSyn),
          make_echo_packet(-12345), ethernet_only_frame()};
}

/// A view over `parsed` with every metadata word non-zero.
PacketView view_of(ParsedPacket& parsed) {
  PacketView view;
  view.parsed = &parsed;
  view.meta_ingress_port = 3;
  view.meta_ingress_ts = 123456789;
  view.meta_packet_length = 60;
  view.meta_egress_spec = 2;
  return view;
}

std::array<std::uint64_t, kFieldCount> read_all(const PacketView& view) {
  std::array<std::uint64_t, kFieldCount> out{};
  for (std::size_t f = 0; f < kFieldCount; ++f) {
    out[f] = view.get(static_cast<FieldRef>(f));
  }
  return out;
}

std::uint64_t low_bits(std::uint64_t v, unsigned bits) {
  return bits >= 64 ? v : v & ((std::uint64_t{1} << bits) - 1);
}

TEST(FieldTable, EveryRowHasADistinctNameAndP4Spelling) {
  std::set<std::string> names;
  for (std::size_t f = 0; f < kFieldCount; ++f) {
    const FieldInfo& fi = field_info(static_cast<FieldRef>(f));
    EXPECT_STRNE(fi.name, "?") << f;
    EXPECT_TRUE(names.insert(fi.name).second) << fi.name;
    ASSERT_NE(fi.p4, nullptr) << fi.name;
    EXPECT_STRNE(fi.p4, "") << fi.name;
    EXPECT_STRNE(fi.p4, "/*?*/0") << fi.name;
    EXPECT_GE(fi.width_bits, 1u) << fi.name;
    EXPECT_LE(fi.width_bits, 64u) << fi.name;
    EXPECT_GE(fi.analysis_bits, 1u) << fi.name;
    EXPECT_LE(fi.analysis_bits, fi.width_bits) << fi.name;
  }
}

TEST(FieldTable, GetFitsTheWidthAndValidityBitsReadZeroOrOne) {
  for (Packet& pkt : frames()) {
    ParsedPacket parsed = parse(pkt);
    const PacketView view = view_of(parsed);
    for (std::size_t f = 0; f < kFieldCount; ++f) {
      const FieldInfo& fi = field_info(static_cast<FieldRef>(f));
      const std::uint64_t v = view.get(static_cast<FieldRef>(f));
      EXPECT_EQ(v, low_bits(v, fi.width_bits)) << fi.name;
      if (fi.is_validity) {
        EXPECT_LE(v, 1u) << fi.name;
        EXPECT_FALSE(fi.writable) << fi.name;
      }
      if (!fi.always_valid && view.get(fi.validity) == 0) {
        EXPECT_EQ(v, 0u) << fi.name << " reads 0 while its header is absent";
      }
    }
  }
}

TEST(FieldTable, SetLandsOnlyWhereTheTableSaysItDoes) {
  const std::uint64_t pattern = 0xA5C3'96E1'5A3C'691Eull;
  for (const Packet& proto : frames()) {
    for (std::size_t f = 0; f < kFieldCount; ++f) {
      const auto field = static_cast<FieldRef>(f);
      const FieldInfo& fi = field_info(field);
      Packet pkt = proto;
      ParsedPacket parsed = parse(pkt);
      PacketView view = view_of(parsed);
      std::array<std::uint64_t, kFieldCount> expect = read_all(view);
      const bool lands =
          fi.writable && (fi.always_valid || view.get(fi.validity) != 0);
      if (lands) expect[f] = low_bits(pattern, fi.width_bits);
      view.set(field, pattern);
      EXPECT_EQ(read_all(view), expect)
          << fi.name << (lands ? " store landed" : " store dropped");
    }
  }
}

}  // namespace
}  // namespace p4sim
