#include "p4sim/jit/transpiler.hpp"

#include <array>
#include <cstddef>
#include <string>
#include <vector>

namespace p4sim::jit {
namespace {

std::optional<Op> g_unsupported_op;  // test hook; see header

std::string u64_lit(Word v) { return std::to_string(v) + "ull"; }

std::string temp_name(TempId id) { return "t" + std::to_string(id); }

/// One statement per instruction; operands are the tN locals.
std::string emit_instruction(const Instruction& ins,
                             const RegisterFile& registers) {
  const std::string d = temp_name(ins.dst);
  const std::string a = temp_name(ins.a);
  const std::string b = temp_name(ins.b);
  const std::string c = temp_name(ins.c);
  const auto field_id = [&] {
    return std::to_string(static_cast<std::uint32_t>(ins.field)) + "u";
  };
  const auto reg = [&] { return std::to_string(ins.reg); };
  const OpInfo& info = op_info(ins.op);
  switch (info.shape) {
    case OpShape::kBinary:
      return d + " = " + a + " " + info.symbol + " " + b + ";";
    case OpShape::kShift:
      return d + " = " + a + " " + info.symbol + " (" + b + " & 63u);";
    case OpShape::kCompare:
      return d + " = (" + a + " " + info.symbol + " " + b + ") ? 1ull : 0ull;";
    case OpShape::kUnary: return d + " = " + info.symbol + a + ";";
    case OpShape::kSelect: return d + " = " + a + " ? " + b + " : " + c + ";";
    case OpShape::kSpecial: break;
  }
  switch (ins.op) {
    case Op::kConst: return d + " = " + u64_lit(ins.imm) + ";";
    case Op::kParam:
      return d + " = (" + u64_lit(ins.imm) + " < c->action_data_len) ? " +
             "c->action_data[" + std::to_string(ins.imm) + "] : 0ull;";
    case Op::kLoadField:
      return d + " = c->load_field(c->view, " + field_id() + ");";
    case Op::kStoreField:
      return "c->store_field(c->view, " + field_id() + ", " + a + ");";
    case Op::kLoadReg: {
      // Bounds and base resolved against the declared array; the size is a
      // literal (arrays never resize), the base pointer stays dynamic.
      const auto& arr = registers.info(ins.reg);
      return "{ u64 i = " + a + "; " + d + " = (i < " + u64_lit(arr.size) +
             ") ? c->regs[" + reg() + "].base[i] : 0ull; }";
    }
    case Op::kStoreReg: {
      const auto& arr = registers.info(ins.reg);
      const Word mask = arr.width_bits == 64
                            ? ~Word{0}
                            : ((Word{1} << arr.width_bits) - 1);
      return "{ u64 i = " + a + "; if (i < " + u64_lit(arr.size) +
             ") c->regs[" + reg() + "].base[i] = " + b + " & " +
             u64_lit(mask) + "; }";
    }
    case Op::kHash1:
    case Op::kHash2:
      return d + " = stat4_jit_" + info.name + "(" + a + ");";
    case Op::kDigest:
      return "if (" + c + " != 0ull) c->emit_digest(c->digest_sink, " +
             std::to_string(static_cast<std::uint32_t>(ins.imm)) + "u, " + a +
             ", " + b + ", " + d + ");";
    default: return ";";
  }
}

/// Emits one action as a function over tN locals.  Temps cross the
/// host/unit boundary only where values can actually flow: locals in the
/// program's own read-before-write set load from ctx->temps on entry
/// (write-first temps start as dead locals), and only written temps some
/// installed action can observe (`observable`: the union of every action's
/// read-before-write set) are stored back on exit.  Everything else lives
/// and dies in registers — this is what makes a transpiled action a handful
/// of instructions instead of a scratch-pool memcpy.
void emit_action(std::string& out, std::size_t index, const Program& program,
                 const RegisterFile& registers,
                 const std::bitset<kTempCount>& observable) {
  out += "// action " + std::to_string(index) + ": '" + program.name + "' (" +
         std::to_string(program.code.size()) + " instructions)\n";
  out += "static void stat4_action_" + std::to_string(index) +
         "(Stat4JitContext* c) {\n";
  out += "  (void)c;\n";
  const std::bitset<kTempCount> rbw = read_before_write(program);
  std::array<bool, kTempCount> used{};
  std::array<bool, kTempCount> written{};
  std::vector<TempId> reads;
  std::vector<TempId> writes;
  for (const Instruction& ins : program.code) {
    reads.clear();
    writes.clear();
    instruction_temps(ins, reads, writes);
    for (const TempId id : reads) used[id] = true;
    for (const TempId id : writes) used[id] = written[id] = true;
  }
  for (std::size_t id = 0; id < kTempCount; ++id) {
    if (!used[id]) continue;
    out += "  u64 t" + std::to_string(id);
    if (rbw[id]) {
      out += " = c->temps[" + std::to_string(id) + "];\n";
    } else {
      out += " = 0ull;  // write-first\n";
    }
  }
  for (const Instruction& ins : program.code) {
    out += "  " + emit_instruction(ins, registers) + "\n";
  }
  for (std::size_t id = 0; id < kTempCount; ++id) {
    if (written[id] && observable[id]) {
      out += "  c->temps[" + std::to_string(id) + "] = t" +
             std::to_string(id) + ";\n";
    }
  }
  out += "}\n\n";
}

}  // namespace

void force_unsupported_op_for_testing(std::optional<Op> op) {
  g_unsupported_op = op;
}

TranspileResult transpile(std::span<const Program> actions,
                          const RegisterFile& registers,
                          std::string_view unit_name) {
  TranspileResult result;
  for (const Program& program : actions) {
    for (const Instruction& ins : program.code) {
      if (g_unsupported_op && ins.op == *g_unsupported_op) {
        result.reason = "program '" + program.name +
                        "' uses an op unsupported by the transpiler";
        return result;
      }
      if ((ins.op == Op::kLoadReg || ins.op == Op::kStoreReg) &&
          ins.reg >= registers.array_count()) {
        result.reason = "program '" + program.name +
                        "' references undeclared register array " +
                        std::to_string(ins.reg);
        return result;
      }
    }
  }

  std::string& out = result.source;
  out += "// stat4 p4sim JIT unit '" + std::string(unit_name) +
         "' — generated by jit/transpiler.cpp (ABI v1).\n";
  out += "// Self-contained: compiled by the host toolchain, dlopen'ed by "
         "jit/engine.cpp.\n\n";
  out += "typedef unsigned long long u64;\n";
  out += "typedef unsigned int u32;\n\n";
  // Textual mirror of jit/abi.hpp — keep field-for-field identical.
  out += "struct Stat4JitRegWindow {\n";
  out += "  u64* base;\n";
  out += "  u64 size;\n";
  out += "  u64 mask;\n";
  out += "};\n\n";
  out += "struct Stat4JitContext {\n";
  out += "  u64* temps;\n";
  out += "  const u64* action_data;\n";
  out += "  u64 action_data_len;\n";
  out += "  void* view;\n";
  out += "  u64 (*load_field)(void* view, u32 field);\n";
  out += "  void (*store_field)(void* view, u32 field, u64 value);\n";
  out += "  const Stat4JitRegWindow* regs;\n";
  out += "  void* digest_sink;\n";
  out += "  void (*emit_digest)(void* sink, u32 id, u64 w0, u64 w1, u64 "
         "w2);\n";
  out += "};\n\n";
  out += "static inline u64 stat4_jit_hash1(u64 key) {\n";
  out += "  // stat4::sparse_hash1, SplitMix64 finalizer (bit-identical).\n";
  out += "  u64 z = key + 0x9E3779B97F4A7C15ull;\n";
  out += "  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;\n";
  out += "  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;\n";
  out += "  return z ^ (z >> 31);\n";
  out += "}\n\n";
  out += "static inline u64 stat4_jit_hash2(u64 key) {\n";
  out += "  // stat4::sparse_hash2, Murmur3 finalizer constants "
         "(bit-identical).\n";
  out += "  u64 z = key ^ 0xC2B2AE3D27D4EB4Full;\n";
  out += "  z = (z ^ (z >> 33)) * 0xFF51AFD7ED558CCDull;\n";
  out += "  z = (z ^ (z >> 33)) * 0xC4CEB9FE1A85EC53ull;\n";
  out += "  return z ^ (z >> 33);\n";
  out += "}\n\n";

  // A written temp is observable iff SOME installed action reads it before
  // writing it — tables dispatch dynamically, so any action may follow any
  // other within a packet.
  std::bitset<kTempCount> observable;
  for (const Program& program : actions) {
    observable |= read_before_write(program);
  }
  for (std::size_t i = 0; i < actions.size(); ++i) {
    emit_action(out, i, actions[i], registers, observable);
  }

  out += "extern \"C\" {\n";
  out += "u64 stat4_jit_abi = 1ull;\n";
  out += "u64 stat4_jit_action_count = " + std::to_string(actions.size()) +
         "ull;\n";
  if (actions.empty()) {
    out += "void (*stat4_jit_actions[1])(Stat4JitContext*) = {0};\n";
  } else {
    out += "void (*stat4_jit_actions[])(Stat4JitContext*) = {\n";
    for (std::size_t i = 0; i < actions.size(); ++i) {
      out += "    stat4_action_" + std::to_string(i) + ",\n";
    }
    out += "};\n";
  }
  out += "}  // extern \"C\"\n";

  result.ok = true;
  return result;
}

}  // namespace p4sim::jit
