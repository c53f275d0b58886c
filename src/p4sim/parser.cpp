#include "p4sim/parser.hpp"

#include <bit>
#include <cstring>

namespace p4sim {

const FieldInfo& field_info(FieldRef f) noexcept {
  // One entry per FieldRef, in enum order; every width/validity/writability
  // statement here is mirrored bit-for-bit by PacketView::get/set below.
  static const FieldInfo kTable[kFieldCount] = {
      {"eth.type", 16, true, true, false, FieldRef::kEthType},
      {"ipv4.src", 32, true, false, false, FieldRef::kIpv4Valid},
      {"ipv4.dst", 32, true, false, false, FieldRef::kIpv4Valid},
      {"ipv4.proto", 8, true, false, false, FieldRef::kIpv4Valid},
      {"ipv4.ttl", 8, true, false, false, FieldRef::kIpv4Valid},
      {"ipv4.$valid", 1, false, true, true, FieldRef::kIpv4Valid},
      {"tcp.src_port", 16, true, false, false, FieldRef::kTcpValid},
      {"tcp.dst_port", 16, true, false, false, FieldRef::kTcpValid},
      {"tcp.flags", 8, true, false, false, FieldRef::kTcpValid},
      {"tcp.$valid", 1, false, true, true, FieldRef::kTcpValid},
      {"udp.src_port", 16, true, false, false, FieldRef::kUdpValid},
      {"udp.dst_port", 16, true, false, false, FieldRef::kUdpValid},
      {"udp.$valid", 1, false, true, true, FieldRef::kUdpValid},
      {"echo.value", 64, true, false, false, FieldRef::kEchoValid},
      {"echo.n", 64, true, false, false, FieldRef::kEchoValid},
      {"echo.xsum", 64, true, false, false, FieldRef::kEchoValid},
      {"echo.xsumsq", 64, true, false, false, FieldRef::kEchoValid},
      {"echo.var", 64, true, false, false, FieldRef::kEchoValid},
      {"echo.sd", 64, true, false, false, FieldRef::kEchoValid},
      {"echo.$valid", 1, false, true, true, FieldRef::kEchoValid},
      {"meta.ingress_port", 64, false, true, false, FieldRef::kMetaIngressPort},
      {"meta.ingress_ts", 64, false, true, false, FieldRef::kMetaIngressTs},
      {"meta.packet_length", 64, false, true, false,
       FieldRef::kMetaPacketLength},
      {"meta.egress_spec", 64, true, true, false, FieldRef::kMetaEgressSpec},
  };
  return kTable[static_cast<std::size_t>(f)];
}

namespace {

// Raw big-endian loads for the fused parse below: each header's size is
// checked once up front, so these skip the per-field bounds test the
// general read_be carries.  memcpy + byte-swap compiles to a single load
// (plus bswap on little-endian hosts) instead of per-byte shift chains.
inline std::uint64_t be16(const Byte* p) {
  std::uint16_t v;
  std::memcpy(&v, p, sizeof v);
#if defined(__GNUC__) || defined(__clang__)
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap16(v);
  }
  return v;
#else
  return static_cast<std::uint64_t>(p[0]) << 8 | p[1];
#endif
}
inline std::uint64_t be32(const Byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
#if defined(__GNUC__) || defined(__clang__)
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap32(v);
  }
  return v;
#else
  return static_cast<std::uint64_t>(p[0]) << 24 |
         static_cast<std::uint64_t>(p[1]) << 16 |
         static_cast<std::uint64_t>(p[2]) << 8 | p[3];
#endif
}
inline std::uint64_t be64(const Byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
#if defined(__GNUC__) || defined(__clang__)
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  return v;
#else
  return be32(p) << 32 | be32(p + 4);
#endif
}

}  // namespace

ParsedPacket parse(const Packet& pkt) {
  // Fused parser: one size check per header, direct loads into the
  // in-place header structs.  It stops at the first header that does not
  // fit and rejects IPv4 whose version nibble is not 4 (then neither ipv4
  // nor an L4 header is valid).  This runs once per packet ahead of every
  // pipeline tier, so it is as lean as the hot loop itself.
  ParsedPacket out;
  const Byte* d = pkt.data.data();
  const std::size_t n = pkt.data.size();
  if (n < EthernetHeader::kSize) return out;
  std::memcpy(out.eth.dst.data(), d, 6);
  std::memcpy(out.eth.src.data(), d + 6, 6);
  out.eth.ether_type = static_cast<std::uint16_t>(be16(d + 12));

  constexpr std::size_t kEthEnd = EthernetHeader::kSize;
  if (out.eth.ether_type == kEtherTypeIpv4) {
    if (n < kEthEnd + Ipv4Header::kSize || (d[kEthEnd] >> 4) != 4) return out;
    const Byte* ip = d + kEthEnd;
    Ipv4Header& h = out.ipv4.emplace();
    h.total_length = static_cast<std::uint16_t>(be16(ip + 2));
    h.ttl = ip[8];
    h.protocol = ip[9];
    h.src = static_cast<std::uint32_t>(be32(ip + 12));
    h.dst = static_cast<std::uint32_t>(be32(ip + 16));

    constexpr std::size_t kL4 = kEthEnd + Ipv4Header::kSize;
    const Byte* l4 = d + kL4;
    if (h.protocol == kIpProtoTcp) {
      if (n < kL4 + TcpHeader::kSize) return out;
      TcpHeader& tcp = out.tcp.emplace();
      tcp.src_port = static_cast<std::uint16_t>(be16(l4));
      tcp.dst_port = static_cast<std::uint16_t>(be16(l4 + 2));
      tcp.seq = static_cast<std::uint32_t>(be32(l4 + 4));
      tcp.flags = l4[13];
    } else if (h.protocol == kIpProtoUdp) {
      if (n < kL4 + UdpHeader::kSize) return out;
      UdpHeader& udp = out.udp.emplace();
      udp.src_port = static_cast<std::uint16_t>(be16(l4));
      udp.dst_port = static_cast<std::uint16_t>(be16(l4 + 2));
      udp.length = static_cast<std::uint16_t>(be16(l4 + 4));
    }
  } else if (out.eth.ether_type == kEtherTypeStat4Echo) {
    if (n < kEthEnd + Stat4EchoHeader::kSize) return out;
    const Byte* e = d + kEthEnd;
    Stat4EchoHeader& echo = out.echo.emplace();
    echo.value = static_cast<std::int64_t>(be64(e));
    echo.n = be64(e + 8);
    echo.xsum = be64(e + 16);
    echo.xsumsq = be64(e + 24);
    echo.var_nx = be64(e + 32);
    echo.sd_nx = be64(e + 40);
  }
  return out;
}

void deparse(const ParsedPacket& parsed, Packet& pkt) {
  serialize(parsed.eth, pkt.data, 0);
  std::size_t off = EthernetHeader::kSize;
  if (parsed.ipv4) {
    serialize(*parsed.ipv4, pkt.data, off);
    off += Ipv4Header::kSize;
    if (parsed.tcp) serialize(*parsed.tcp, pkt.data, off);
    if (parsed.udp) serialize(*parsed.udp, pkt.data, off);
  } else if (parsed.echo) {
    serialize(*parsed.echo, pkt.data, off);
  }
}

}  // namespace p4sim
