// Tests for packet buffers, header serialization and the parser.
#include <gtest/gtest.h>

#include "p4sim/craft.hpp"
#include "p4sim/headers.hpp"
#include "p4sim/packet.hpp"
#include "p4sim/parser.hpp"

namespace p4sim {
namespace {

TEST(ByteOrder, ReadWriteRoundTrip) {
  std::vector<Byte> buf(16, 0);
  write_be(buf, 2, 4, 0xDEADBEEF);
  EXPECT_EQ(read_be(buf, 2, 4), 0xDEADBEEFu);
  EXPECT_EQ(buf[2], 0xDE);
  EXPECT_EQ(buf[5], 0xEF);
}

TEST(ByteOrder, OutOfBoundsReadsZero) {
  std::vector<Byte> buf(4, 0xFF);
  EXPECT_EQ(read_be(buf, 2, 4), 0u);
  EXPECT_EQ(read_be(buf, 0, 9), 0u);  // width > 8
}

TEST(ByteOrder, OutOfBoundsWriteIsNoop) {
  std::vector<Byte> buf(4, 0);
  write_be(buf, 2, 4, 0xFFFFFFFF);
  for (const auto b : buf) EXPECT_EQ(b, 0);
}

TEST(ByteOrder, SixtyFourBitValues) {
  std::vector<Byte> buf(8, 0);
  write_be(buf, 0, 8, 0x0123456789ABCDEFull);
  EXPECT_EQ(read_be(buf, 0, 8), 0x0123456789ABCDEFull);
}

// Header layouts round-trip through serialize() and the switch parser.

/// A zeroed frame of `size` bytes opening with an Ethernet header of
/// `ether_type`.
Packet frame(std::uint16_t ether_type, std::size_t size) {
  Packet pkt;
  pkt.data.assign(size, 0);
  EthernetHeader eth;
  eth.ether_type = ether_type;
  serialize(eth, pkt.data);
  return pkt;
}

constexpr std::size_t kL4Offset = EthernetHeader::kSize + Ipv4Header::kSize;

TEST(Headers, EthernetRoundTrip) {
  EthernetHeader h;
  h.dst = {1, 2, 3, 4, 5, 6};
  h.src = {7, 8, 9, 10, 11, 12};
  h.ether_type = kEtherTypeIpv4;
  Packet pkt;
  pkt.data.assign(EthernetHeader::kSize, 0);
  serialize(h, pkt.data);
  const ParsedPacket p = parse(pkt);
  EXPECT_EQ(p.eth.dst, h.dst);
  EXPECT_EQ(p.eth.src, h.src);
  EXPECT_EQ(p.eth.ether_type, h.ether_type);
  EXPECT_FALSE(p.ipv4.has_value()) << "no room for an IPv4 header";
}

TEST(Headers, EthernetTooShort) {
  Packet pkt;
  pkt.data.assign(10, 0xFF);
  const ParsedPacket p = parse(pkt);
  EXPECT_EQ(p.eth.ether_type, 0);
  EXPECT_EQ(p.eth.dst, MacAddr{});
  EXPECT_FALSE(p.ipv4.has_value());
  EXPECT_FALSE(p.echo.has_value());
}

TEST(Headers, Ipv4RoundTrip) {
  Ipv4Header h;
  h.ttl = 17;
  h.protocol = kIpProtoUdp;
  h.total_length = 1234;
  h.src = 0x0A000001;
  h.dst = 0x0A000502;
  Packet pkt = frame(kEtherTypeIpv4, kL4Offset);
  serialize(h, pkt.data, EthernetHeader::kSize);
  const ParsedPacket p = parse(pkt);
  ASSERT_TRUE(p.ipv4.has_value());
  EXPECT_EQ(p.ipv4->ttl, 17);
  EXPECT_EQ(p.ipv4->protocol, kIpProtoUdp);
  EXPECT_EQ(p.ipv4->total_length, 1234);
  EXPECT_EQ(p.ipv4->src, h.src);
  EXPECT_EQ(p.ipv4->dst, h.dst);
  EXPECT_FALSE(p.udp.has_value()) << "no room for a UDP header";
}

TEST(Headers, Ipv4RejectsWrongVersion) {
  Packet pkt = frame(kEtherTypeIpv4, kL4Offset + TcpHeader::kSize);
  Ipv4Header ip;
  ip.protocol = kIpProtoTcp;
  serialize(ip, pkt.data, EthernetHeader::kSize);
  serialize(TcpHeader{}, pkt.data, kL4Offset);
  pkt.data[EthernetHeader::kSize] = 0x60;  // IPv6 version nibble
  const ParsedPacket p = parse(pkt);
  EXPECT_FALSE(p.ipv4.has_value());
  EXPECT_FALSE(p.tcp.has_value());
}

TEST(Headers, TcpRoundTrip) {
  TcpHeader h;
  h.src_port = 12345;
  h.dst_port = 443;
  h.seq = 0xABCDEF01;
  h.flags = kTcpSyn | kTcpAck;
  Packet pkt = frame(kEtherTypeIpv4, kL4Offset + TcpHeader::kSize);
  Ipv4Header ip;
  ip.protocol = kIpProtoTcp;
  serialize(ip, pkt.data, EthernetHeader::kSize);
  serialize(h, pkt.data, kL4Offset);
  const ParsedPacket p = parse(pkt);
  ASSERT_TRUE(p.tcp.has_value());
  EXPECT_EQ(p.tcp->src_port, 12345);
  EXPECT_EQ(p.tcp->dst_port, 443);
  EXPECT_EQ(p.tcp->seq, 0xABCDEF01u);
  EXPECT_EQ(p.tcp->flags, kTcpSyn | kTcpAck);
}

TEST(Headers, EchoRoundTripNegativeValue) {
  Stat4EchoHeader h;
  h.value = -255;
  h.n = 1;
  h.xsum = 2;
  h.xsumsq = 4;
  h.var_nx = 0;
  h.sd_nx = 0;
  Packet pkt = frame(kEtherTypeStat4Echo,
                     EthernetHeader::kSize + Stat4EchoHeader::kSize);
  serialize(h, pkt.data, EthernetHeader::kSize);
  const ParsedPacket p = parse(pkt);
  ASSERT_TRUE(p.echo.has_value());
  EXPECT_EQ(p.echo->value, -255);
  EXPECT_EQ(p.echo->n, 1u);
  EXPECT_EQ(p.echo->xsumsq, 4u);
}

TEST(Parser, UdpPacketFullChain) {
  const Packet pkt = make_udp_packet(ipv4(1, 2, 3, 4), ipv4(10, 0, 5, 6),
                                     5000, 53);
  const ParsedPacket p = parse(pkt);
  EXPECT_EQ(p.eth.ether_type, kEtherTypeIpv4);
  ASSERT_TRUE(p.ipv4.has_value());
  EXPECT_EQ(p.ipv4->dst, ipv4(10, 0, 5, 6));
  ASSERT_TRUE(p.udp.has_value());
  EXPECT_EQ(p.udp->dst_port, 53);
  EXPECT_FALSE(p.tcp.has_value());
  EXPECT_FALSE(p.echo.has_value());
}

TEST(Parser, TcpSynPacket) {
  const Packet pkt = make_tcp_packet(ipv4(1, 2, 3, 4), ipv4(10, 0, 1, 1),
                                     40000, 80, kTcpSyn);
  const ParsedPacket p = parse(pkt);
  ASSERT_TRUE(p.tcp.has_value());
  EXPECT_EQ(p.tcp->flags, kTcpSyn);
  EXPECT_EQ(p.tcp->dst_port, 80);
}

TEST(Parser, EchoPacket) {
  const Packet pkt = make_echo_packet(-42);
  const ParsedPacket p = parse(pkt);
  ASSERT_TRUE(p.echo.has_value());
  EXPECT_EQ(p.echo->value, -42);
  EXPECT_FALSE(p.ipv4.has_value());
}

TEST(Parser, PaddedPacketKeepsHeaders) {
  const Packet pkt = make_udp_packet(1, 2, 3, 4, /*pad_to=*/1500);
  EXPECT_EQ(pkt.size(), 1500u);
  const ParsedPacket p = parse(pkt);
  ASSERT_TRUE(p.udp.has_value());
  EXPECT_EQ(p.udp->dst_port, 4);
}

TEST(Parser, DeparseWritesMutationsBack) {
  Packet pkt = make_udp_packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 10, 20);
  ParsedPacket p = parse(pkt);
  p.ipv4->ttl = 3;
  p.udp->dst_port = 999;
  deparse(p, pkt);
  const ParsedPacket again = parse(pkt);
  EXPECT_EQ(again.ipv4->ttl, 3);
  EXPECT_EQ(again.udp->dst_port, 999);
}

TEST(PacketView, FieldAccess) {
  Packet pkt = make_tcp_packet(ipv4(9, 8, 7, 6), ipv4(10, 0, 5, 36), 1000,
                               443, kTcpSyn | kTcpAck);
  ParsedPacket p = parse(pkt);
  PacketView v;
  v.parsed = &p;
  v.meta_ingress_port = 3;
  v.meta_packet_length = pkt.size();
  EXPECT_EQ(v.get(FieldRef::kIpv4Dst), ipv4(10, 0, 5, 36));
  EXPECT_EQ(v.get(FieldRef::kTcpFlags), kTcpSyn | kTcpAck);
  EXPECT_EQ(v.get(FieldRef::kIpv4Valid), 1u);
  EXPECT_EQ(v.get(FieldRef::kUdpValid), 0u);
  EXPECT_EQ(v.get(FieldRef::kMetaIngressPort), 3u);

  v.set(FieldRef::kMetaEgressSpec, 7);
  EXPECT_EQ(v.meta_egress_spec, 7u);
  v.set(FieldRef::kIpv4Ttl, 9);
  EXPECT_EQ(v.get(FieldRef::kIpv4Ttl), 9u);
  // Read-only fields are not writable.
  v.set(FieldRef::kMetaIngressPort, 99);
  EXPECT_EQ(v.get(FieldRef::kMetaIngressPort), 3u);
}

TEST(PacketView, MissingHeadersReadZero) {
  Packet pkt = make_echo_packet(5);
  ParsedPacket p = parse(pkt);
  PacketView v;
  v.parsed = &p;
  EXPECT_EQ(v.get(FieldRef::kIpv4Dst), 0u);
  EXPECT_EQ(v.get(FieldRef::kTcpFlags), 0u);
  EXPECT_EQ(v.get(FieldRef::kEchoValid), 1u);
  // Writing into an absent header is a no-op, not a crash.
  v.set(FieldRef::kIpv4Ttl, 1);
  EXPECT_EQ(v.get(FieldRef::kIpv4Ttl), 0u);
}

}  // namespace
}  // namespace p4sim
