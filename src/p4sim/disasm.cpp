#include "p4sim/disasm.hpp"

#include <sstream>

namespace p4sim {

const char* field_name(FieldRef f) noexcept {
  switch (f) {
    case FieldRef::kEthType: return "eth.type";
    case FieldRef::kIpv4Src: return "ipv4.src";
    case FieldRef::kIpv4Dst: return "ipv4.dst";
    case FieldRef::kIpv4Proto: return "ipv4.proto";
    case FieldRef::kIpv4Ttl: return "ipv4.ttl";
    case FieldRef::kIpv4Valid: return "ipv4.$valid";
    case FieldRef::kTcpSrcPort: return "tcp.sport";
    case FieldRef::kTcpDstPort: return "tcp.dport";
    case FieldRef::kTcpFlags: return "tcp.flags";
    case FieldRef::kTcpValid: return "tcp.$valid";
    case FieldRef::kUdpSrcPort: return "udp.sport";
    case FieldRef::kUdpDstPort: return "udp.dport";
    case FieldRef::kUdpValid: return "udp.$valid";
    case FieldRef::kEchoValue: return "echo.value";
    case FieldRef::kEchoN: return "echo.n";
    case FieldRef::kEchoXsum: return "echo.xsum";
    case FieldRef::kEchoXsumsq: return "echo.xsumsq";
    case FieldRef::kEchoVar: return "echo.var";
    case FieldRef::kEchoSd: return "echo.sd";
    case FieldRef::kEchoValid: return "echo.$valid";
    case FieldRef::kMetaIngressPort: return "meta.ingress_port";
    case FieldRef::kMetaIngressTs: return "meta.ingress_ts";
    case FieldRef::kMetaPacketLength: return "meta.pkt_len";
    case FieldRef::kMetaEgressSpec: return "meta.egress_spec";
  }
  return "?";
}

namespace {

std::string reg_name(RegisterId id, const RegisterFile* registers) {
  if (registers != nullptr && id < registers->array_count()) {
    return registers->info(id).name;
  }
  return "reg" + std::to_string(id);
}

}  // namespace

std::string to_string(const Instruction& ins, const RegisterFile* registers) {
  std::ostringstream os;
  const auto t = [](TempId id) { return "t" + std::to_string(id); };

  const OpInfo& info = op_info(ins.op);
  switch (info.shape) {
    case OpShape::kBinary:
    case OpShape::kShift:
    case OpShape::kCompare:
      os << t(ins.dst) << " = " << t(ins.a) << ' ' << info.symbol << ' '
         << t(ins.b);
      return os.str();
    case OpShape::kUnary:
      os << t(ins.dst) << " = " << info.symbol << t(ins.a);
      return os.str();
    case OpShape::kSelect:
      os << t(ins.dst) << " = " << t(ins.a) << " ? " << t(ins.b) << " : "
         << t(ins.c);
      return os.str();
    case OpShape::kSpecial:
      break;
  }
  switch (ins.op) {
    case Op::kConst:
      os << t(ins.dst) << " = " << ins.imm;
      break;
    case Op::kParam:
      os << t(ins.dst) << " = action_data[" << ins.imm << ']';
      break;
    case Op::kLoadField:
      os << t(ins.dst) << " = " << field_name(ins.field);
      break;
    case Op::kStoreField:
      os << field_name(ins.field) << " := " << t(ins.a);
      break;
    case Op::kLoadReg:
      os << t(ins.dst) << " = " << reg_name(ins.reg, registers) << '['
         << t(ins.a) << ']';
      break;
    case Op::kStoreReg:
      os << reg_name(ins.reg, registers) << '[' << t(ins.a)
         << "] := " << t(ins.b);
      break;
    case Op::kDigest:
      os << "digest#" << ins.imm << '(' << t(ins.a) << ", " << t(ins.b)
         << ", " << t(ins.dst) << ") if " << t(ins.c);
      break;
    default:  // the hash externs
      os << t(ins.dst) << " = " << info.name << '(' << t(ins.a) << ')';
      break;
  }
  return os.str();
}

std::string disassemble(const Program& program,
                        const RegisterFile* registers) {
  std::ostringstream os;
  os << "action " << program.name << " {  // " << program.code.size()
     << " instructions\n";
  for (std::size_t i = 0; i < program.code.size(); ++i) {
    os << "  [" << i << "] " << to_string(program.code[i], registers) << '\n';
  }
  os << "}\n";
  return os.str();
}

}  // namespace p4sim
