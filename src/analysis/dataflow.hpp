// Reusable dataflow analyses over the p4sim straight-line IR.
//
// Everything the transform passes (passes.hpp) need to reason about a
// program lives here, factored so each analysis is independently testable.
// Per-opcode facts (operand slots read, dst written, purity, state access)
// and the pure evaluator come from p4sim's op table (p4sim/op_table.hpp:
// `op_info`, `eval`), the same source the interpreter runs, so constant
// folding can never diverge from execution.  On top of it:
//
//   collect_facts()     — per-program summaries (written / upward-exposed
//                         temp sets, register and field access sets) used by
//                         liveness seeding, stage packing, and the pipeline
//                         temp-sharing analysis in pass_manager.cpp;
//   liveness_after()    — backward temp liveness, the basis of dead-code
//                         elimination;
//   same_instruction()  — structural equality over the slots an op uses.
//
// Temps persist across pipeline stages within one packet (stages share the
// ExecutionContext), so per-program results are only safe to act on
// together with the cross-stage context computed by the PassManager.
#pragma once

#include <bitset>
#include <cstdint>
#include <set>
#include <vector>

#include "p4sim/action.hpp"
#include "p4sim/parser.hpp"

namespace analysis {

/// Set of scratch temps (PHV containers).
using TempSet = std::bitset<p4sim::kTempCount>;

/// Per-program dataflow summary.
struct ProgramFacts {
  TempSet written;         ///< temps the program may write
  TempSet upward_exposed;  ///< temps read before any write (stage inputs)
  std::set<p4sim::RegisterId> regs_read;
  std::set<p4sim::RegisterId> regs_written;
  std::bitset<p4sim::kFieldCount> fields_read;
  std::bitset<p4sim::kFieldCount> fields_written;
  std::size_t max_temp_plus_one = 0;  ///< 1 + highest temp referenced

  [[nodiscard]] bool touches_register(p4sim::RegisterId r) const {
    return regs_read.count(r) != 0 || regs_written.count(r) != 0;
  }
  /// True when the program shares any register array with `other` — the
  /// hazard condition stage packing must avoid (a merged action would gain
  /// S4-HAZ-001/002 multi-access findings the split stages did not have).
  [[nodiscard]] bool registers_conflict(const ProgramFacts& other) const;
};

[[nodiscard]] ProgramFacts collect_facts(const p4sim::Program& program);

/// Backward liveness.  Returns, for each instruction index i, the set of
/// temps live immediately AFTER instruction i executes; `live_out` seeds
/// the set at the end of the program (temps later pipeline stages may read).
/// An instruction defining a temp not live after it, with no side effect,
/// is dead.
[[nodiscard]] std::vector<TempSet> liveness_after(
    const p4sim::Program& program, const TempSet& live_out);

/// A canonical kConst: every unused operand slot zeroed, so structurally
/// equal rewrites compare equal (CSE keys, golden emissions, idempotence).
[[nodiscard]] p4sim::Instruction make_const(p4sim::TempId dst, p4sim::Word v);

/// A canonical kMov (see make_const).
[[nodiscard]] p4sim::Instruction make_mov(p4sim::TempId dst, p4sim::TempId src);

/// Structural instruction equality over the slots the opcode actually uses.
[[nodiscard]] bool same_instruction(const p4sim::Instruction& lhs,
                                    const p4sim::Instruction& rhs);

}  // namespace analysis
