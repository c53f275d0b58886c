#include "p4sim/headers.hpp"

namespace p4sim {

namespace {
constexpr std::size_t kIpv4TtlOff = 8;
constexpr std::size_t kIpv4ProtoOff = 9;
constexpr std::size_t kIpv4LenOff = 2;
constexpr std::size_t kIpv4SrcOff = 12;
constexpr std::size_t kIpv4DstOff = 16;
constexpr std::size_t kTcpFlagsOff = 13;
}  // namespace

void serialize(const EthernetHeader& h, std::span<Byte> buf,
               std::size_t offset) {
  if (offset + EthernetHeader::kSize > buf.size()) return;
  for (std::size_t i = 0; i < 6; ++i) buf[offset + i] = h.dst[i];
  for (std::size_t i = 0; i < 6; ++i) buf[offset + 6 + i] = h.src[i];
  write_be(buf, offset + 12, 2, h.ether_type);
}

void serialize(const Ipv4Header& h, std::span<Byte> buf, std::size_t offset) {
  if (offset + Ipv4Header::kSize > buf.size()) return;
  buf[offset] = 0x45;  // version 4, IHL 5
  buf[offset + 1] = 0;
  write_be(buf, offset + kIpv4LenOff, 2, h.total_length);
  write_be(buf, offset + 4, 4, 0);  // id/flags/frag
  buf[offset + kIpv4TtlOff] = h.ttl;
  buf[offset + kIpv4ProtoOff] = h.protocol;
  write_be(buf, offset + 10, 2, 0);  // checksum (not modeled)
  write_be(buf, offset + kIpv4SrcOff, 4, h.src);
  write_be(buf, offset + kIpv4DstOff, 4, h.dst);
}

void serialize(const TcpHeader& h, std::span<Byte> buf, std::size_t offset) {
  if (offset + TcpHeader::kSize > buf.size()) return;
  write_be(buf, offset, 2, h.src_port);
  write_be(buf, offset + 2, 2, h.dst_port);
  write_be(buf, offset + 4, 4, h.seq);
  write_be(buf, offset + 8, 4, 0);  // ack
  buf[offset + 12] = 0x50;          // data offset 5
  buf[offset + kTcpFlagsOff] = h.flags;
  write_be(buf, offset + 14, 2, 0xFFFF);  // window
  write_be(buf, offset + 16, 4, 0);       // checksum/urgent
}

void serialize(const UdpHeader& h, std::span<Byte> buf, std::size_t offset) {
  if (offset + UdpHeader::kSize > buf.size()) return;
  write_be(buf, offset, 2, h.src_port);
  write_be(buf, offset + 2, 2, h.dst_port);
  write_be(buf, offset + 4, 2, h.length);
  write_be(buf, offset + 6, 2, 0);  // checksum
}

void serialize(const Stat4EchoHeader& h, std::span<Byte> buf,
               std::size_t offset) {
  if (offset + Stat4EchoHeader::kSize > buf.size()) return;
  write_be(buf, offset, 8, static_cast<std::uint64_t>(h.value));
  write_be(buf, offset + 8, 8, h.n);
  write_be(buf, offset + 16, 8, h.xsum);
  write_be(buf, offset + 24, 8, h.xsumsq);
  write_be(buf, offset + 32, 8, h.var_nx);
  write_be(buf, offset + 40, 8, h.sd_nx);
}

}  // namespace p4sim
