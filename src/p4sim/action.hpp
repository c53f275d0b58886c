// Straight-line action programs over a P4-legal ALU.
//
// This layer makes the paper's constraints machine-checked: the instruction
// set has addition, subtraction, shifts, bitwise logic, comparisons and a
// ternary select — and nothing else.  There is NO division, NO modulo, NO
// square root, NO floating point, and NO loop: a program is a fixed vector
// of instructions executed exactly once per packet, like a P4 action body /
// sequence of pipeline ALU operations.  The opcodes, their operand slots
// and their pure semantics are defined once, in op_table.hpp.
//
// Multiplication exists as an opcode because bmv2 supports it, but hardware
// profiles (AluProfile) can forbid it — "some hardware switches do not
// support the squaring of values unknown at compile time" (Section 2) — in
// which case programs must be built with the shift-based approx-square
// sequence instead.  Program::validate() enforces the profile.
#pragma once

#include <bitset>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "p4sim/op_table.hpp"
#include "p4sim/parser.hpp"
#include "p4sim/register_file.hpp"

namespace p4sim {

using TempId = std::uint16_t;

/// Number of per-packet scratch words (PHV/metadata containers).
inline constexpr std::size_t kTempCount = 2048;

struct Instruction {
  Op op = Op::kConst;
  TempId dst = 0;
  TempId a = 0;
  TempId b = 0;
  TempId c = 0;
  Word imm = 0;
  FieldRef field = FieldRef::kEthType;
  RegisterId reg = 0;
};

/// What the target hardware's per-stage ALU supports.
struct AluProfile {
  bool has_mul = true;              ///< bmv2: yes; some ASICs: no
  std::size_t max_instructions = 4096;
  static AluProfile bmv2() { return {}; }
  static AluProfile hardware_no_mul() { return {false, 4096}; }
};

/// A message pushed from the data plane to the controller (P4 digest) —
/// the alert channel of the envisioned architecture (Figure 1c).
struct Digest {
  std::uint32_t id = 0;
  std::array<Word, 3> payload{};
  stat4::TimeNs time = 0;
};

/// Declared-accuracy metadata for one approximate-helper expansion.
///
/// ProgramBuilder's approx_* helpers emit straight-line shift/select code
/// whose *ideal* meaning (sqrt, square, product, log2) is not recoverable
/// from the instructions alone.  Each helper therefore records the
/// instruction range it emitted together with a declared error contract
///
///     |implemented - ideal_fn(input)| <= ideal-scale * rel_num/rel_den + abs
///
/// which the precision analysis (src/analysis/precision.cpp) consumes to
/// bound output error instead of propagating through the opaque bitwise
/// body.  kTableLookup is the hook for the future table-based pseudo-float
/// tier: a lookup extern with a declared per-entry error, analysed the same
/// way.  Spans are only meaningful for the exact code the builder emitted;
/// the optimizer drops them whenever it rewrites a program.
struct ApproxSpan {
  enum class Fn : std::uint8_t { kSqrt, kSquare, kMul, kLog2, kTableLookup };
  Fn fn = Fn::kSqrt;
  std::uint32_t begin = 0;  ///< index of the first emitted instruction
  std::uint32_t end = 0;    ///< one past the last emitted instruction
  TempId in_a = 0;          ///< primary input temp (live at `begin`)
  TempId in_b = 0;          ///< second input (kMul only; otherwise == in_a)
  TempId out = 0;           ///< result temp, written by code[end - 1]
  std::uint32_t rel_num = 0;  ///< relative error numerator
  std::uint32_t rel_den = 1;  ///< relative error denominator (non-zero)
  std::uint64_t abs = 0;      ///< absolute error, in output value units
};

struct Program {
  std::string name;
  std::vector<Instruction> code;
  /// Accuracy contracts for approx-helper expansions inside `code`,
  /// ordered by `begin`.  Cleared by any pass that rewrites `code`.
  std::vector<ApproxSpan> approx_spans;

  /// Throws std::invalid_argument when the program exceeds the profile
  /// (unknown temp, too long, multiplication on a no-mul target, ...).
  void validate(const AluProfile& profile) const;
};

/// Per-packet execution state.
struct ExecutionContext {
  PacketView* view = nullptr;
  RegisterFile* registers = nullptr;
  std::span<const Word> action_data;
  std::vector<Digest>* digests = nullptr;
  stat4::TimeNs now = 0;
  std::array<Word, kTempCount> temps{};
};

/// Runs the program to completion (no branches, no loops: O(|code|)).
void execute(const Program& program, ExecutionContext& ctx);

/// Temps `ins` reads (slot order a, b, c, dst) / writes, appended to the
/// vectors, as kOpTable declares them — in particular kDigest READS dst
/// (third payload word) and the store ops write no temp at all.
void instruction_temps(const Instruction& ins, std::vector<TempId>& reads,
                       std::vector<TempId>& writes);

/// Temps `program` reads before writing — the only temps whose
/// pre-execution value (the per-packet zero fill, or an earlier stage's
/// write) can flow into the program.  Everything else is written first and
/// needs no initialization.
[[nodiscard]] std::bitset<kTempCount> read_before_write(
    const Program& program);

/// Convenience builder producing SSA-ish programs: every helper allocates a
/// fresh temp and returns its id.  Mirrors how one composes P4 primitive
/// actions.
class ProgramBuilder {
 public:
  explicit ProgramBuilder(std::string name);

  TempId konst(Word v);
  TempId param(std::size_t index);
  TempId load_field(FieldRef f);
  void store_field(FieldRef f, TempId v);
  TempId load_reg(RegisterId r, TempId index);
  void store_reg(RegisterId r, TempId index, TempId value);

  TempId add(TempId a, TempId b);
  TempId sub(TempId a, TempId b);
  TempId mul(TempId a, TempId b);
  TempId shl(TempId a, TempId b);
  TempId shr(TempId a, TempId b);
  TempId band(TempId a, TempId b);
  TempId bor(TempId a, TempId b);
  TempId bxor(TempId a, TempId b);
  TempId bnot(TempId a);
  TempId eq(TempId a, TempId b);
  TempId ne(TempId a, TempId b);
  TempId lt(TempId a, TempId b);
  TempId gt(TempId a, TempId b);
  TempId le(TempId a, TempId b);
  TempId ge(TempId a, TempId b);
  TempId select(TempId cond, TempId if_true, TempId if_false);
  /// Overwrites an existing temp (register-style accumulation).  Needed for
  /// long chains where SSA would exhaust the temp pool.
  void mov_into(TempId dst, TempId src);
  /// Emit a digest with the given 3-word payload iff `cond` is non-zero.
  void digest_if(TempId cond, std::uint32_t id, TempId w0, TempId w1,
                 TempId w2);

  /// Shift-based approximate product (for no-mul targets):
  ///   a*b ~= (b << msb(a)) + ((a - 2^msb(a)) << msb(b))
  /// i.e. drop only the r_a * r_b cross term (< 25% relative error), the
  /// same idea as approx_square extended to general products.
  ///
  /// CAUTION: the Stat4 variance identity N*Xsumsq - Xsum^2 subtracts two
  /// nearly equal large terms; a 25% error on either destroys the result.
  /// Use mul_shift_add for variance-critical products on no-mul targets.
  TempId approx_mul(TempId a, TempId b);

  /// EXACT product via an unrolled shift-and-add ladder over the low `bits`
  /// of `a` (schoolbook binary multiplication; no kMul emitted).  Costs
  /// ~5*bits instructions with an O(bits) dependency chain — expensive in
  /// pipeline stages but exact, which the variance identity requires.
  TempId mul_shift_add(TempId a, TempId b, unsigned bits = 32);

  /// Hash externs (the target's CRC units; here SplitMix/Murmur mixes that
  /// stat4::sparse_hash1/2 share so library and switch stay bit-identical).
  TempId hash1(TempId a);
  TempId hash2(TempId a);

  /// Emit the MSB-position computation as the paper's "sequence of ifs"
  /// (6 select steps for 64-bit input).  Returns temp holding msb index.
  TempId msb_index(TempId y);

  /// Emit the Figure 2 approximate square root (uses msb_index + shifts).
  TempId approx_sqrt(TempId y);

  /// Emit shift-based approximate squaring (for no-mul targets).
  TempId approx_square(TempId y);

  /// Emit the fixed-point approximate log2 (stat4::approx_log2 semantics:
  /// integer part = MSB position, fraction = top mantissa bits, 8
  /// fractional bits).  Shifts and selects only.
  TempId approx_log2(TempId y);

  [[nodiscard]] Program take();
  [[nodiscard]] std::size_t instruction_count() const noexcept {
    return program_.code.size();
  }

 private:
  TempId fresh();
  TempId emit2(Op op, TempId a, TempId b);
  void record_span(ApproxSpan::Fn fn, std::size_t begin, TempId in_a,
                   TempId in_b, TempId out, std::uint32_t rel_num,
                   std::uint32_t rel_den, std::uint64_t abs);

  Program program_;
  TempId next_temp_ = 0;
};

}  // namespace p4sim
