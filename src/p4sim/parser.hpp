// Packet parser: the P4 parser state machine of the Stat4 programs.
//
// parse() walks Ethernet -> (IPv4 -> TCP/UDP | Stat4Echo) and produces a
// ParsedPacket with validity bits, mirroring how a P4 parser fills header
// instances.  FieldRef names every field the match-action pipeline can read
// or write — the equivalent of PHV container addresses.
#pragma once

#include <cstdint>
#include <optional>

#include "p4sim/headers.hpp"
#include "p4sim/packet.hpp"

namespace p4sim {

struct ParsedPacket {
  EthernetHeader eth;
  std::optional<Ipv4Header> ipv4;
  std::optional<TcpHeader> tcp;
  std::optional<UdpHeader> udp;
  std::optional<Stat4EchoHeader> echo;
};

/// Every packet/metadata field addressable from action programs and table
/// keys.  META_* fields are standard metadata; SCRATCH fields let the
/// controller pass per-entry action data through (set before execution).
enum class FieldRef : std::uint8_t {
  kEthType,
  kIpv4Src,
  kIpv4Dst,
  kIpv4Proto,
  kIpv4Ttl,
  kIpv4Valid,
  kTcpSrcPort,
  kTcpDstPort,
  kTcpFlags,
  kTcpValid,
  kUdpSrcPort,
  kUdpDstPort,
  kUdpValid,
  kEchoValue,
  kEchoN,
  kEchoXsum,
  kEchoXsumsq,
  kEchoVar,
  kEchoSd,
  kEchoValid,
  kMetaIngressPort,
  kMetaIngressTs,
  kMetaPacketLength,
  kMetaEgressSpec,  ///< 0 = drop; otherwise output port + 1
};

inline constexpr std::size_t kFieldCount =
    static_cast<std::size_t>(FieldRef::kMetaEgressSpec) + 1;

/// Static description of one FieldRef: the one field table every layer
/// reads (names in the disassembler and diagnostics, entry bounds in the
/// static passes, spellings in the P4 emitter, LPM masks in the tables).
/// The first six columns mirror PacketView::get/set bit-exactly:
///   width_bits    — get() results fit in this many bits, and set() persists
///                   only the low width_bits (the static_cast truncation);
///   writable      — set() has an effect; false for the *Valid bits and the
///                   read-only ingress metadata;
///   always_valid  — get/set are unconditional; when false, both are gated
///                   on the owning header's validity bit (`validity`): get
///                   reads 0 and set is a no-op while the header is absent;
///   is_validity   — the field IS a header validity bit (0/1, read-only).
/// The last two describe the field to the analyses and the emitter:
///   analysis_bits — the value width the static passes assume on entry and
///                   check every store against; narrower than width_bits
///                   for the port, length and egress metadata, which the
///                   simulator holds in 64-bit words;
///   p4            — the field's P4_16 spelling in emitted actions and
///                   table keys (p4gen).
struct FieldInfo {
  const char* name = "?";
  std::uint32_t width_bits = 64;
  bool writable = true;
  bool always_valid = true;
  bool is_validity = false;
  FieldRef validity = FieldRef::kEthType;  ///< meaningful iff !always_valid
  std::uint32_t analysis_bits = 64;
  const char* p4 = "/*?*/0";
};

[[nodiscard]] const FieldInfo& field_info(FieldRef f) noexcept;

/// Parse a packet buffer into headers (P4 parser semantics: stop at the
/// first header that does not fit).
[[nodiscard]] ParsedPacket parse(const Packet& pkt);

/// Write mutated headers back into the packet buffer (deparser).
void deparse(const ParsedPacket& parsed, Packet& pkt);

/// Field read/write over a ParsedPacket + metadata words.  get/set are
/// inline: they sit on the per-packet hot path behind every guard check,
/// table-key probe and kLoadField/kStoreField op.  So they stay hand-written
/// switches rather than reads of field_info(); tests/p4sim_field_table_test
/// holds them to the table.
struct PacketView {
  ParsedPacket* parsed = nullptr;
  std::uint64_t meta_ingress_port = 0;
  std::uint64_t meta_ingress_ts = 0;
  std::uint64_t meta_packet_length = 0;
  std::uint64_t meta_egress_spec = 0;
  /// Any set() other than egress-spec landed — the deparse gate: when no
  /// header field was touched the buffer is forwarded byte-for-byte and
  /// process_into() skips re-serialization entirely.
  bool header_dirty = false;

  [[nodiscard]] std::uint64_t get(FieldRef f) const {
    const ParsedPacket& p = *parsed;
    switch (f) {
      case FieldRef::kEthType: return p.eth.ether_type;
      case FieldRef::kIpv4Src: return p.ipv4 ? p.ipv4->src : 0;
      case FieldRef::kIpv4Dst: return p.ipv4 ? p.ipv4->dst : 0;
      case FieldRef::kIpv4Proto: return p.ipv4 ? p.ipv4->protocol : 0;
      case FieldRef::kIpv4Ttl: return p.ipv4 ? p.ipv4->ttl : 0;
      case FieldRef::kIpv4Valid: return p.ipv4 ? 1 : 0;
      case FieldRef::kTcpSrcPort: return p.tcp ? p.tcp->src_port : 0;
      case FieldRef::kTcpDstPort: return p.tcp ? p.tcp->dst_port : 0;
      case FieldRef::kTcpFlags: return p.tcp ? p.tcp->flags : 0;
      case FieldRef::kTcpValid: return p.tcp ? 1 : 0;
      case FieldRef::kUdpSrcPort: return p.udp ? p.udp->src_port : 0;
      case FieldRef::kUdpDstPort: return p.udp ? p.udp->dst_port : 0;
      case FieldRef::kUdpValid: return p.udp ? 1 : 0;
      case FieldRef::kEchoValue:
        return p.echo ? static_cast<std::uint64_t>(p.echo->value) : 0;
      case FieldRef::kEchoN: return p.echo ? p.echo->n : 0;
      case FieldRef::kEchoXsum: return p.echo ? p.echo->xsum : 0;
      case FieldRef::kEchoXsumsq: return p.echo ? p.echo->xsumsq : 0;
      case FieldRef::kEchoVar: return p.echo ? p.echo->var_nx : 0;
      case FieldRef::kEchoSd: return p.echo ? p.echo->sd_nx : 0;
      case FieldRef::kEchoValid: return p.echo ? 1 : 0;
      case FieldRef::kMetaIngressPort: return meta_ingress_port;
      case FieldRef::kMetaIngressTs: return meta_ingress_ts;
      case FieldRef::kMetaPacketLength: return meta_packet_length;
      case FieldRef::kMetaEgressSpec: return meta_egress_spec;
    }
    return 0;
  }

  void set(FieldRef f, std::uint64_t v) {
    if (f == FieldRef::kMetaEgressSpec) {
      meta_egress_spec = v;
      return;
    }
    // Every non-egress store arms the deparser, even a no-op one (invalid
    // header, read-only field): pre-gate behavior was to always deparse,
    // and a no-op store must keep producing the same normalized bytes.
    header_dirty = true;
    ParsedPacket& p = *parsed;
    switch (f) {
      case FieldRef::kEthType:
        p.eth.ether_type = static_cast<std::uint16_t>(v);
        break;
      case FieldRef::kIpv4Src:
        if (p.ipv4) p.ipv4->src = static_cast<std::uint32_t>(v);
        break;
      case FieldRef::kIpv4Dst:
        if (p.ipv4) p.ipv4->dst = static_cast<std::uint32_t>(v);
        break;
      case FieldRef::kIpv4Proto:
        if (p.ipv4) p.ipv4->protocol = static_cast<std::uint8_t>(v);
        break;
      case FieldRef::kIpv4Ttl:
        if (p.ipv4) p.ipv4->ttl = static_cast<std::uint8_t>(v);
        break;
      case FieldRef::kTcpSrcPort:
        if (p.tcp) p.tcp->src_port = static_cast<std::uint16_t>(v);
        break;
      case FieldRef::kTcpDstPort:
        if (p.tcp) p.tcp->dst_port = static_cast<std::uint16_t>(v);
        break;
      case FieldRef::kTcpFlags:
        if (p.tcp) p.tcp->flags = static_cast<std::uint8_t>(v);
        break;
      case FieldRef::kUdpSrcPort:
        if (p.udp) p.udp->src_port = static_cast<std::uint16_t>(v);
        break;
      case FieldRef::kUdpDstPort:
        if (p.udp) p.udp->dst_port = static_cast<std::uint16_t>(v);
        break;
      case FieldRef::kEchoValue:
        if (p.echo) p.echo->value = static_cast<std::int64_t>(v);
        break;
      case FieldRef::kEchoN:
        if (p.echo) p.echo->n = v;
        break;
      case FieldRef::kEchoXsum:
        if (p.echo) p.echo->xsum = v;
        break;
      case FieldRef::kEchoXsumsq:
        if (p.echo) p.echo->xsumsq = v;
        break;
      case FieldRef::kEchoVar:
        if (p.echo) p.echo->var_nx = v;
        break;
      case FieldRef::kEchoSd:
        if (p.echo) p.echo->sd_nx = v;
        break;
      case FieldRef::kMetaEgressSpec:  // handled above
      case FieldRef::kIpv4Valid:
      case FieldRef::kTcpValid:
      case FieldRef::kUdpValid:
      case FieldRef::kEchoValid:
      case FieldRef::kMetaIngressPort:
      case FieldRef::kMetaIngressTs:
      case FieldRef::kMetaPacketLength:
        break;  // read-only fields
    }
  }
};

}  // namespace p4sim
