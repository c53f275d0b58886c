#include "p4sim/disasm.hpp"

#include <sstream>

namespace p4sim {

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
      os << t(ins.dst) << " = " << field_info(ins.field).name;
      break;
    case Op::kStoreField:
      os << field_info(ins.field).name << " := " << t(ins.a);
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
