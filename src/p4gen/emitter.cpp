#include "p4gen/emitter.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "p4sim/disasm.hpp"

namespace p4gen {

using p4sim::ActionId;
using p4sim::FieldRef;
using p4sim::Instruction;
using p4sim::MatchKind;
using p4sim::Op;
using p4sim::OpInfo;
using p4sim::OpShape;
using p4sim::P4Switch;
using p4sim::Program;
using p4sim::TempId;

namespace {

/// P4 lvalue for a packet/metadata field.
const char* p4_field(FieldRef f) {
  switch (f) {
    case FieldRef::kEthType: return "hdr.ethernet.ether_type";
    case FieldRef::kIpv4Src: return "hdr.ipv4.src_addr";
    case FieldRef::kIpv4Dst: return "hdr.ipv4.dst_addr";
    case FieldRef::kIpv4Proto: return "hdr.ipv4.protocol";
    case FieldRef::kIpv4Ttl: return "hdr.ipv4.ttl";
    case FieldRef::kIpv4Valid: return "(bit<64>)(bit<1>)hdr.ipv4.isValid()";
    case FieldRef::kTcpSrcPort: return "hdr.tcp.src_port";
    case FieldRef::kTcpDstPort: return "hdr.tcp.dst_port";
    case FieldRef::kTcpFlags: return "hdr.tcp.flags";
    case FieldRef::kTcpValid: return "(bit<64>)(bit<1>)hdr.tcp.isValid()";
    case FieldRef::kUdpSrcPort: return "hdr.udp.src_port";
    case FieldRef::kUdpDstPort: return "hdr.udp.dst_port";
    case FieldRef::kUdpValid: return "(bit<64>)(bit<1>)hdr.udp.isValid()";
    case FieldRef::kEchoValue: return "hdr.stat4_echo.value";
    case FieldRef::kEchoN: return "hdr.stat4_echo.n";
    case FieldRef::kEchoXsum: return "hdr.stat4_echo.xsum";
    case FieldRef::kEchoXsumsq: return "hdr.stat4_echo.xsumsq";
    case FieldRef::kEchoVar: return "hdr.stat4_echo.var_nx";
    case FieldRef::kEchoSd: return "hdr.stat4_echo.sd_nx";
    case FieldRef::kEchoValid: return "(bit<64>)(bit<1>)hdr.stat4_echo.isValid()";
    case FieldRef::kMetaIngressPort:
      return "(bit<64>)standard_metadata.ingress_port";
    case FieldRef::kMetaIngressTs:
      return "(bit<64>)standard_metadata.ingress_global_timestamp";
    case FieldRef::kMetaPacketLength:
      return "(bit<64>)standard_metadata.packet_length";
    case FieldRef::kMetaEgressSpec:
      return "meta.egress_spec64";
  }
  return "/*?*/0";
}

std::string tname(TempId id) { return "meta.t" + std::to_string(id); }

/// The statement for an op of OpShape::kSpecial (immediates, state and
/// externs), which each target spells by hand.
void emit_special(std::ostringstream& os, const P4Switch& sw,
                  const Instruction& ins) {
  const auto t = tname;
  switch (ins.op) {
    case Op::kConst:
      os << t(ins.dst) << " = 64w" << ins.imm << ';';
      break;
    case Op::kParam:
      os << t(ins.dst) << " = p" << ins.imm << ';';
      break;
    case Op::kLoadField:
      os << t(ins.dst) << " = (bit<64>)" << p4_field(ins.field) << ';';
      break;
    case Op::kStoreField:
      if (ins.field == FieldRef::kMetaEgressSpec) {
        os << p4_field(ins.field) << " = " << t(ins.a) << ';';
      } else {
        os << p4_field(ins.field) << " = (bit<"
           << "64>)" << t(ins.a) << ';';
      }
      break;
    case Op::kLoadReg:
      os << sw.registers().info(ins.reg).name << ".read(" << t(ins.dst)
         << ", (bit<32>)" << t(ins.a) << ");";
      break;
    case Op::kStoreReg:
      os << sw.registers().info(ins.reg).name << ".write((bit<32>)"
         << t(ins.a) << ", " << t(ins.b) << ");";
      break;
    case Op::kHash1:
      os << "hash(" << t(ins.dst)
         << ", HashAlgorithm.crc32, 64w0, { " << t(ins.a)
         << " }, 64w0xFFFFFFFFFFFFFFFF); // stat4 hash extern #1";
      break;
    case Op::kHash2:
      os << "hash(" << t(ins.dst)
         << ", HashAlgorithm.crc32_custom, 64w0, { " << t(ins.a)
         << " }, 64w0xFFFFFFFFFFFFFFFF); // stat4 hash extern #2";
      break;
    case Op::kDigest:
      os << "if (" << t(ins.c) << " != 0) { digest<stat4_alert_t>(1, { 32w"
         << ins.imm << ", " << t(ins.a) << ", " << t(ins.b) << ", "
         << t(ins.dst) << " }); }";
      break;
    default:
      break;
  }
}

/// Emits one instruction as a P4 statement (indented, newline-terminated).
void emit_instruction(std::ostringstream& os, const P4Switch& sw,
                      const Instruction& ins, bool annotate) {
  const auto t = tname;
  os << "        ";
  const OpInfo& info = p4sim::op_info(ins.op);
  switch (info.shape) {
    case OpShape::kBinary:
      os << t(ins.dst) << " = " << t(ins.a) << ' ' << info.symbol << ' '
         << t(ins.b) << ';';
      break;
    case OpShape::kShift:
      os << t(ins.dst) << " = " << t(ins.a) << ' ' << info.symbol
         << " (bit<8>)(" << t(ins.b) << " & 63);";
      break;
    case OpShape::kCompare:
      os << t(ins.dst) << " = (" << t(ins.a) << ' ' << info.symbol << ' '
         << t(ins.b) << ") ? 64w1 : 64w0;";
      break;
    case OpShape::kUnary:
      os << t(ins.dst) << " = " << info.symbol << t(ins.a) << ';';
      break;
    case OpShape::kSelect:
      os << t(ins.dst) << " = (" << t(ins.a) << " != 0) ? " << t(ins.b)
         << " : " << t(ins.c) << ';';
      break;
    case OpShape::kSpecial:
      emit_special(os, sw, ins);
      break;
  }
  if (annotate) {
    os << "  // " << p4sim::to_string(ins, &sw.registers());
  }
  os << '\n';
}

/// The action-parameter indices a program reads via kParam.
std::set<std::uint64_t> param_indices(const Program& p) {
  std::set<std::uint64_t> out;
  for (const auto& ins : p.code) {
    if (ins.op == Op::kParam) out.insert(ins.imm);
  }
  return out;
}

/// Highest temp id a program touches (for scratch-struct sizing).
TempId max_temp(const Program& p) {
  TempId mx = 0;
  for (const auto& ins : p.code) {
    mx = std::max({mx, ins.dst, ins.a, ins.b, ins.c});
  }
  return mx;
}

void emit_action_decl(std::ostringstream& os, const P4Switch& sw,
                      ActionId id, const EmitOptions& opt) {
  const Program& prog = sw.action(id);
  os << "    action " << prog.name << '(';
  bool first = true;
  for (const auto idx : param_indices(prog)) {
    if (!first) os << ", ";
    os << "bit<64> p" << idx;
    first = false;
  }
  os << ") {\n";
  for (const auto& ins : prog.code) {
    emit_instruction(os, sw, ins, opt.annotate);
  }
  os << "    }\n\n";
}

const char* match_kind(MatchKind k) {
  switch (k) {
    case MatchKind::kExact: return "exact";
    case MatchKind::kLpm: return "lpm";
    case MatchKind::kTernary: return "ternary";
  }
  return "exact";
}

/// Key expression for a table key field (tables match header fields, not
/// the 64-bit casts used in expressions).
std::string key_field(FieldRef f) {
  const std::string s = p4_field(f);
  // Strip the value-cast wrappers used for expression contexts.
  if (s.rfind("(bit<64>)", 0) == 0) {
    const auto inner = s.substr(9);
    if (inner.rfind("(bit<1>)", 0) == 0) return inner.substr(8);
    return inner;
  }
  return s;
}

constexpr const char* kHeadersAndParser = R"(
// ---- headers -------------------------------------------------------------
header ethernet_t {
    bit<48> dst_addr;
    bit<48> src_addr;
    bit<16> ether_type;
}

header ipv4_t {
    bit<4>  version;
    bit<4>  ihl;
    bit<8>  diffserv;
    bit<16> total_len;
    bit<16> identification;
    bit<3>  flags;
    bit<13> frag_offset;
    bit<8>  ttl;
    bit<8>  protocol;
    bit<16> hdr_checksum;
    bit<32> src_addr;
    bit<32> dst_addr;
}

header tcp_t {
    bit<16> src_port;
    bit<16> dst_port;
    bit<32> seq_no;
    bit<32> ack_no;
    bit<4>  data_offset;
    bit<4>  res;
    bit<8>  flags;
    bit<16> window;
    bit<16> checksum;
    bit<16> urgent_ptr;
}

header udp_t {
    bit<16> src_port;
    bit<16> dst_port;
    bit<16> length;
    bit<16> checksum;
}

// Stat4 echo header (EtherType 0x88B5): Figure 5 validation application.
header stat4_echo_t {
    bit<64> value;
    bit<64> n;
    bit<64> xsum;
    bit<64> xsumsq;
    bit<64> var_nx;
    bit<64> sd_nx;
}

struct headers_t {
    ethernet_t   ethernet;
    ipv4_t       ipv4;
    tcp_t        tcp;
    udp_t        udp;
    stat4_echo_t stat4_echo;
}

// Alert digest pushed to the controller (Figure 1c).
struct stat4_alert_t {
    bit<32> digest_id;
    bit<64> w0;
    bit<64> w1;
    bit<64> w2;
}

// ---- parser ----------------------------------------------------------------
parser Stat4Parser(packet_in packet, out headers_t hdr,
                   inout metadata_t meta,
                   inout standard_metadata_t standard_metadata) {
    state start {
        packet.extract(hdr.ethernet);
        transition select(hdr.ethernet.ether_type) {
            0x0800: parse_ipv4;
            0x88B5: parse_stat4_echo;
            default: accept;
        }
    }
    state parse_ipv4 {
        packet.extract(hdr.ipv4);
        transition select(hdr.ipv4.protocol) {
            6:  parse_tcp;
            17: parse_udp;
            default: accept;
        }
    }
    state parse_tcp { packet.extract(hdr.tcp); transition accept; }
    state parse_udp { packet.extract(hdr.udp); transition accept; }
    state parse_stat4_echo {
        packet.extract(hdr.stat4_echo);
        transition accept;
    }
}
)";

}  // namespace

std::string emit_action(const P4Switch& sw, ActionId action,
                        const EmitOptions& options) {
  std::ostringstream os;
  emit_action_decl(os, sw, action, options);
  return os.str();
}

std::string emit_p4(const P4Switch& sw, const EmitOptions& options) {
  std::ostringstream os;
  os << "// " << options.program_name
     << " — generated by stat4cpp's P4 emitter from the validated\n"
     << "// p4sim pipeline \"" << sw.name() << "\".  Structure and\n"
     << "// arithmetic are one-to-one with the simulated, tested programs;\n"
     << "// extern signatures may need adaptation to your p4c target.\n";
  if (!options.header_note.empty()) {
    os << "// " << options.header_note << "\n";
  }
  os << "#include <core.p4>\n#include <v1model.p4>\n";

  // Scratch metadata: one 64-bit container per temp any action touches.
  TempId temps = 0;
  for (std::size_t i = 0; i < sw.action_count(); ++i) {
    temps = std::max(temps,
                     static_cast<TempId>(
                         max_temp(sw.action(static_cast<ActionId>(i))) + 1));
  }
  os << "\nstruct metadata_t {\n"
     << "    bit<64> egress_spec64;\n";
  for (TempId i = 0; i < temps; ++i) {
    os << "    bit<64> t" << i << ";\n";
  }
  os << "}\n";

  os << kHeadersAndParser;

  // Ingress control: registers + actions + tables + guarded apply.
  os << "\n// ---- ingress "
        "----------------------------------------------------------\n"
     << "control Stat4Ingress(inout headers_t hdr, inout metadata_t meta,\n"
     << "                     inout standard_metadata_t standard_metadata) "
        "{\n";
  for (std::size_t r = 0; r < sw.registers().array_count(); ++r) {
    const auto& info = sw.registers().info(static_cast<std::uint32_t>(r));
    os << "    register<bit<" << info.width_bits << ">>(" << info.size
       << ") " << info.name << ";\n";
  }
  os << '\n';

  for (std::size_t a = 0; a < sw.action_count(); ++a) {
    emit_action_decl(os, sw, static_cast<ActionId>(a), options);
  }

  for (std::size_t ti = 0; ti < sw.table_count(); ++ti) {
    const auto& table = sw.table(static_cast<std::uint32_t>(ti));
    os << "    table " << table.name() << " {\n        key = {\n";
    for (const auto& k : table.key_layout()) {
      os << "            " << key_field(k.field) << " : "
         << match_kind(k.kind) << ";\n";
    }
    os << "        }\n        actions = {\n";
    for (std::size_t a = 0; a < sw.action_count(); ++a) {
      os << "            " << sw.action(static_cast<ActionId>(a)).name
         << ";\n";
    }
    os << "        }\n        size = " << table.max_entries()
       << ";\n    }\n\n";
  }

  os << "    apply {\n        meta.egress_spec64 = 0; // default drop\n";
  for (const auto& stage : sw.pipeline()) {
    std::string body;
    if (stage.table) {
      body = sw.table(*stage.table).name() + ".apply();";
    } else if (stage.action) {
      body = sw.action(*stage.action).name + "();";
    }
    if (stage.guard) {
      const std::string g = key_field(stage.guard->field);
      const char* cmp =
          stage.guard->cmp == p4sim::Guard::Cmp::kEq ? "==" : "!=";
      // isValid-style guards read naturally; numeric guards compare.
      os << "        if (" << g << ' ' << cmp << ' ' << stage.guard->value
         << ") { " << body << " }\n";
    } else {
      os << "        " << body << '\n';
    }
  }
  os << "        if (meta.egress_spec64 == 0) {\n"
     << "            mark_to_drop(standard_metadata);\n"
     << "        } else {\n"
     << "            standard_metadata.egress_spec =\n"
     << "                (bit<9>)(meta.egress_spec64 - 1);\n"
     << "        }\n    }\n}\n";

  // Boilerplate egress / checksum / deparser.
  os << R"(
// ---- egress / deparser ------------------------------------------------------
control Stat4Egress(inout headers_t hdr, inout metadata_t meta,
                    inout standard_metadata_t standard_metadata) {
    apply { }
}

control Stat4VerifyChecksum(inout headers_t hdr, inout metadata_t meta) {
    apply { }
}

control Stat4ComputeChecksum(inout headers_t hdr, inout metadata_t meta) {
    apply { }
}

control Stat4Deparser(packet_out packet, in headers_t hdr) {
    apply {
        packet.emit(hdr.ethernet);
        packet.emit(hdr.ipv4);
        packet.emit(hdr.tcp);
        packet.emit(hdr.udp);
        packet.emit(hdr.stat4_echo);
    }
}

V1Switch(Stat4Parser(), Stat4VerifyChecksum(), Stat4Ingress(),
         Stat4Egress(), Stat4ComputeChecksum(), Stat4Deparser()) main;
)";
  return os.str();
}

}  // namespace p4gen
