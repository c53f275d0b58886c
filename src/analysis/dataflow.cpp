#include "analysis/dataflow.hpp"

#include <algorithm>

namespace analysis {

using p4sim::Instruction;
using p4sim::Op;
using p4sim::op_info;
using p4sim::OpEffect;
using p4sim::OpInfo;
using p4sim::Program;
using p4sim::TempId;
using p4sim::Word;

bool ProgramFacts::registers_conflict(const ProgramFacts& other) const {
  for (const p4sim::RegisterId r : regs_read) {
    if (other.touches_register(r)) return true;
  }
  for (const p4sim::RegisterId r : regs_written) {
    if (other.touches_register(r)) return true;
  }
  return false;
}

ProgramFacts collect_facts(const Program& program) {
  ProgramFacts facts;
  auto note_temp = [&facts](TempId t) {
    facts.max_temp_plus_one =
        std::max(facts.max_temp_plus_one, static_cast<std::size_t>(t) + 1);
  };
  auto read = [&facts, &note_temp](TempId t) {
    if (!facts.written.test(t)) facts.upward_exposed.set(t);
    note_temp(t);
  };
  for (const Instruction& ins : program.code) {
    const OpInfo& info = op_info(ins.op);
    if (info.reads_a) read(ins.a);
    if (info.reads_b) read(ins.b);
    if (info.reads_c) read(ins.c);
    if (info.reads_dst) read(ins.dst);
    // A state op that writes dst is a load; one that writes no temp stores.
    if (info.effect == OpEffect::kField) {
      (info.writes_dst ? facts.fields_read : facts.fields_written)
          .set(static_cast<std::size_t>(ins.field));
    }
    if (info.effect == OpEffect::kRegister) {
      (info.writes_dst ? facts.regs_read : facts.regs_written).insert(ins.reg);
    }
    if (info.writes_dst) {
      facts.written.set(ins.dst);
      note_temp(ins.dst);
    }
  }
  return facts;
}

std::vector<TempSet> liveness_after(const Program& program,
                                    const TempSet& live_out) {
  std::vector<TempSet> after(program.code.size());
  TempSet live = live_out;
  for (std::size_t i = program.code.size(); i-- > 0;) {
    after[i] = live;
    const Instruction& ins = program.code[i];
    const OpInfo& info = op_info(ins.op);
    if (info.writes_dst) live.reset(ins.dst);
    if (info.reads_a) live.set(ins.a);
    if (info.reads_b) live.set(ins.b);
    if (info.reads_c) live.set(ins.c);
    if (info.reads_dst) live.set(ins.dst);
  }
  return after;
}

Instruction make_const(TempId dst, Word v) {
  Instruction ins;
  ins.op = Op::kConst;
  ins.dst = dst;
  ins.imm = v;
  return ins;
}

Instruction make_mov(TempId dst, TempId src) {
  Instruction ins;
  ins.op = Op::kMov;
  ins.dst = dst;
  ins.a = src;
  return ins;
}

bool same_instruction(const Instruction& lhs, const Instruction& rhs) {
  if (lhs.op != rhs.op) return false;
  const OpInfo& info = op_info(lhs.op);
  if ((info.writes_dst || info.reads_dst) && lhs.dst != rhs.dst) return false;
  if (info.reads_a && lhs.a != rhs.a) return false;
  if (info.reads_b && lhs.b != rhs.b) return false;
  if (info.reads_c && lhs.c != rhs.c) return false;
  if (info.uses_imm && lhs.imm != rhs.imm) return false;
  if (info.effect == OpEffect::kField && lhs.field != rhs.field) return false;
  if (info.effect == OpEffect::kRegister && lhs.reg != rhs.reg) return false;
  return true;
}

}  // namespace analysis
