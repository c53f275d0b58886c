// Protocol headers understood by the switch parser.
//
// Ethernet / IPv4 / TCP / UDP cover everything the paper's use cases need
// (Table 1), plus a tiny Stat4 echo header used by the Figure 5 validation
// experiment: an Ethernet payload carrying one signed integer and, on the
// return path, the switch's statistical registers.
#pragma once

#include <array>
#include <cstdint>

#include "p4sim/packet.hpp"

namespace p4sim {

using MacAddr = std::array<Byte, 6>;

// EtherTypes / protocol numbers used by the simulator.
inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr std::uint16_t kEtherTypeStat4Echo = 0x88B5;  // local exp. 1
inline constexpr std::uint8_t kIpProtoTcp = 6;
inline constexpr std::uint8_t kIpProtoUdp = 17;

// TCP flag bits.
inline constexpr std::uint8_t kTcpFin = 0x01;
inline constexpr std::uint8_t kTcpSyn = 0x02;
inline constexpr std::uint8_t kTcpRst = 0x04;
inline constexpr std::uint8_t kTcpAck = 0x10;

struct EthernetHeader {
  static constexpr std::size_t kSize = 14;
  MacAddr dst{};
  MacAddr src{};
  std::uint16_t ether_type = 0;
};

struct Ipv4Header {
  static constexpr std::size_t kSize = 20;  // no options
  std::uint8_t ttl = 64;
  std::uint8_t protocol = 0;
  std::uint16_t total_length = 0;
  std::uint32_t src = 0;  ///< host byte order
  std::uint32_t dst = 0;  ///< host byte order
};

struct TcpHeader {
  static constexpr std::size_t kSize = 20;  // no options
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint8_t flags = 0;
};

struct UdpHeader {
  static constexpr std::size_t kSize = 8;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;
};

/// Payload of the Figure 5 echo experiment.  The host sends {value}; the
/// switch echoes the frame back with the stats registers filled in.
struct Stat4EchoHeader {
  static constexpr std::size_t kSize = 8 + 5 * 8;
  std::int64_t value = 0;     ///< random integer in [-255, 255]
  std::uint64_t n = 0;        ///< N
  std::uint64_t xsum = 0;     ///< Xsum
  std::uint64_t xsumsq = 0;   ///< Xsumsq
  std::uint64_t var_nx = 0;   ///< sigma^2(NX)
  std::uint64_t sd_nx = 0;    ///< sigma(NX) via approx sqrt
};

// ---- serialization -------------------------------------------------------
// Each header serializes at a given offset (nothing is written when the
// buffer is too short); parse() in parser.hpp reads them back.  Offsets
// compose: eth at 0, ipv4 at 14, l4 at 34.

void serialize(const EthernetHeader& h, std::span<Byte> buf,
               std::size_t offset = 0);
void serialize(const Ipv4Header& h, std::span<Byte> buf, std::size_t offset);
void serialize(const TcpHeader& h, std::span<Byte> buf, std::size_t offset);
void serialize(const UdpHeader& h, std::span<Byte> buf, std::size_t offset);
void serialize(const Stat4EchoHeader& h, std::span<Byte> buf,
               std::size_t offset);

}  // namespace p4sim
