// Threaded-code execution tier (ExecTier::kThreaded).
//
// threaded_compile() pre-decodes a straight-line Program into a flat
// stream of ThreadedOps: every operand the interpreter resolves per packet
// is resolved once at compile time instead — register accesses carry the
// array's base pointer / bounds / width mask (RegisterFile::window), field
// references and immediates sit in the op itself, and each op carries the
// address of its handler so execution is a computed-goto chain
// (GCC/Clang's labels-as-values, which the build requires) rather than a
// per-op switch.
//
// Semantics are bit-identical to action.cpp execute(): the differential
// suites (tests/exec_tier_differential_test.cpp) replay every catalog app
// against the interpreter.  Programs referencing a register array that does
// not exist fall back to dynamic RegisterFile dispatch per access so the
// interpreter's out_of_range throw is preserved.
#pragma once

#include <cstdint>
#include <vector>

#include "p4sim/action.hpp"
#include "p4sim/register_file.hpp"

namespace p4sim {

/// One pre-decoded instruction: 64 bytes, aligned to one cache line, so a
/// dispatch touches one line wherever the allocator places the stream.  The
/// handler and the packed operand ids come first; the register window and
/// the second immediate (reg_mask) only matter to the ops that use them.
struct alignas(64) ThreadedOp {
  const void* handler = nullptr;  ///< computed-goto label
  std::uint8_t opcode = 0;        ///< internal opcode (lowering only)
  TempId dst = 0;
  TempId a = 0;
  TempId b = 0;
  TempId c = 0;
  TempId e = 0;  ///< fifth operand of fused compare+select ops
  FieldRef field = FieldRef::kEthType;
  RegisterId reg = 0;  ///< dynamic-register ops only
  Word imm = 0;
  Word* reg_base = nullptr;  ///< pre-resolved register cells
  std::uint64_t reg_size = 0;
  Word reg_mask = 0;
};

/// A compiled program: the op stream always ends with a terminator op, so
/// the dispatch loop needs no bounds check.
struct ThreadedProgram {
  std::vector<ThreadedOp> ops;
  /// Ops placed behind skip-if-zero handlers (guarded runs); 0 when the
  /// program had no run worth guarding and was lowered in program order.
  std::size_t guarded_ops = 0;
};

/// Per-packet state threaded execution runs over — the flat equivalent of
/// ExecutionContext, with the action-data span exploded into pointer+len
/// so handlers touch no std:: machinery.
struct ThreadedState {
  Word* temps = nullptr;
  PacketView* view = nullptr;
  RegisterFile* registers = nullptr;  ///< dynamic-register ops only
  const Word* action_data = nullptr;
  std::size_t action_data_len = 0;
  std::vector<Digest>* digests = nullptr;
  stat4::TimeNs now = 0;
};

/// Pre-decodes `program`, resolving register operands against `registers`,
/// and optimizes the op stream:
///   1. lowering with straight-line constant propagation and folding
///      (through p4sim::eval, so including the hash externs),
///      immediate-operand op variants, and constant-index register
///      accesses lowered to pre-resolved cell pointers;
///   1.5 copy propagation;
///   2. dead-code elimination of pure ops whose result no installed action
///      can observe;
///   3. fused compare+select pairs;
///   4. guarded runs.  A demand analysis finds, for each pure op (ALU ops,
///      hash externs, params, field and register loads), the temps any of
///      which being zero makes its result irrelevant: a select's true arm
///      needs the condition, the later-defined operand of an `and` needs
///      the earlier one (closed over `and` chains), a digest's payload
///      needs the digest's condition.  Effects (stores, digests,
///      dynamic-register ops) and the final def of every temp in
///      `observable` always run.  Ops sharing a guard are scheduled into
///      one run behind a skip-if-zero handler on it — never moving a
///      register or field load across a store to the same array or field,
///      nor any op across a def or use of a temp it touches — when the run
///      is long enough to pay for the handler.  A program with no such run
///      keeps its program order.
/// Each pass costs time in proportion to the action's op count: the
/// temp-indexed tables span the temps the action names, and pass 4 keeps
/// its guard and op sets as bit rows (one word per 64 guards or ops), so
/// an action too short for a run pays almost nothing for it.  The result is
/// pinned op for op by tests/threaded_lowering_golden_test.cpp.
/// `observable` is the union of every installed action's read-before-write
/// set (see read_before_write): temps outside it are program-local and may
/// be optimized away or skipped; temps inside it keep their final stores.
/// A skipped op leaves its temp stale (the persistent scratch's previous
/// value), which only ops that are themselves irrelevant can read.  The
/// result holds raw cell pointers: valid until the next
/// RegisterFile::declare (the switch re-lowers on config_gen_ bump).
[[nodiscard]] ThreadedProgram threaded_compile(
    const Program& program, RegisterFile& registers,
    const std::bitset<kTempCount>& observable);

/// Runs a compiled program to completion.
void threaded_execute(const ThreadedProgram& program, ThreadedState& state);

}  // namespace p4sim
