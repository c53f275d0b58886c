// The p4sim opcode set, defined once.
//
// `Op` names the instructions of the restricted switch ALU (see action.hpp)
// plus the packet, register, hash and digest externs.  `kOpTable` holds one
// row per opcode with everything the tools need to know about it without
// re-spelling its meaning: the mnemonic, the operator symbol, how a code
// emitter shapes it, which operand slots it reads, whether it writes dst,
// and which state it touches.  `eval` is the one place the pure semantics
// are written out (wrapping u64 arithmetic, `& 63` shift amounts, 0/1
// comparisons, the stat4 hash mixes).  The interpreter, both constant
// folders, the dataflow analyses, the disassembler and the C / P4 emitters
// are all derived from these two.
//
// Adding an opcode: append an enumerator, a table row (the static_assert
// below checks the order) and, for a pure op, its `eval` case.  The abstract
// transfer functions (analysis/overflow, precision, symbolic) and the
// threaded tier are the only other places that must learn it: threaded.cpp
// mirrors the enumerator in InternalOp and needs its handler, while the
// op's row of the threaded operand model (`kModel`) comes from this table.
// The forms the threaded tier adds of its own each take a `kModel` row by
// hand; its static_asserts fail to compile until every one has a row and a
// handler label.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "p4sim/register_file.hpp"
#include "stat4/sparse_freq.hpp"

namespace p4sim {

enum class Op : std::uint8_t {
  kConst,       // dst = imm
  kParam,       // dst = action_data[imm]         (table-entry action data)
  kMov,         // dst = t[a]
  kAdd,         // dst = t[a] + t[b]              (wraps, like P4 bit<W>)
  kSub,         // dst = t[a] - t[b]
  kMul,         // dst = t[a] * t[b]              (profile-gated)
  kShl,         // dst = t[a] << (t[b] & 63)
  kShr,         // dst = t[a] >> (t[b] & 63)
  kAnd,         // dst = t[a] & t[b]
  kOr,          // dst = t[a] | t[b]
  kXor,         // dst = t[a] ^ t[b]
  kNot,         // dst = ~t[a]
  kEq,          // dst = t[a] == t[b]
  kNe,          // dst = t[a] != t[b]
  kLt,          // dst = t[a] <  t[b]  (unsigned)
  kGt,          // dst = t[a] >  t[b]  (unsigned)
  kLe,          // dst = t[a] <= t[b]  (unsigned)
  kGe,          // dst = t[a] >= t[b]  (unsigned)
  kSelect,      // dst = t[a] ? t[b] : t[c]
  kLoadField,   // dst = packet field
  kStoreField,  // packet field = t[a]
  kLoadReg,     // dst = reg[reg_id][ t[a] ]
  kStoreReg,    // reg[reg_id][ t[a] ] = t[b]
  kHash1,       // dst = hash_1(t[a])   (hash extern, like P4's crc32/crc64)
  kHash2,       // dst = hash_2(t[a])   (an independent second hash extern)
  kDigest,      // if (t[c] != 0) emit digest{ id=imm,
                //                            payload=[t[a], t[b], t[dst]] }
};

inline constexpr std::size_t kOpCount =
    static_cast<std::size_t>(Op::kDigest) + 1;

/// How a code emitter spells an op, given its `symbol`:
///   kBinary   dst = a sym b
///   kShift    dst = a sym (b & 63)
///   kCompare  dst = (a sym b) ? 1 : 0
///   kUnary    dst = sym a              (kMov's symbol is empty)
///   kSelect   dst = a ? b : c
///   kSpecial  spelled by hand per target (immediates, state, externs)
enum class OpShape : std::uint8_t {
  kBinary,
  kShift,
  kCompare,
  kUnary,
  kSelect,
  kSpecial,
};

/// The state an op touches besides its temps.  Ops that write dst only READ
/// that state (kLoadField, kLoadReg); ops that write no temp are exactly the
/// ones with an effect of their own (kStoreField, kStoreReg, kDigest).
enum class OpEffect : std::uint8_t {
  kPure,        ///< a function of the read temps and imm only
  kActionData,  ///< reads the matched entry's action data (kParam)
  kField,       ///< packet header / metadata field
  kRegister,    ///< register array cell
  kDigest,      ///< pushes a message to the controller
};

struct OpInfo {
  Op op;
  const char* name;    ///< mnemonic, e.g. "add"
  const char* symbol;  ///< operator for the non-special shapes, else nullptr
  OpShape shape;
  OpEffect effect;
  bool reads_a;
  bool reads_b;
  bool reads_c;
  bool reads_dst;  ///< kDigest only: dst is the third payload word
  bool writes_dst;
  /// A pure switch-ALU op; false for the hash externs and every impure op.
  bool alu;
  bool commutative;
  /// The op's meaning depends on `imm` (constant, param index, digest id).
  bool uses_imm;

  [[nodiscard]] constexpr bool pure() const noexcept {
    return effect == OpEffect::kPure;
  }
};

namespace op_table_detail {

enum Slot : unsigned { kA = 1, kB = 2, kC = 4, kD = 8 };
enum Flag : unsigned { kW = 1, kAlu = 2, kComm = 4, kImm = 8 };

constexpr OpInfo row(Op op, const char* name, const char* symbol,
                     OpShape shape, OpEffect effect, unsigned reads,
                     unsigned flags) {
  return OpInfo{op,
                name,
                symbol,
                shape,
                effect,
                (reads & kA) != 0,
                (reads & kB) != 0,
                (reads & kC) != 0,
                (reads & kD) != 0,
                (flags & kW) != 0,
                (flags & kAlu) != 0,
                (flags & kComm) != 0,
                (flags & kImm) != 0};
}

using enum OpShape;
using enum OpEffect;

// clang-format off
inline constexpr std::array<OpInfo, kOpCount> kRows = {{
  //  op               mnemonic       symbol   shape     effect       reads              flags
  row(Op::kConst,      "const",       nullptr, kSpecial, kPure,       0,                 kW | kAlu | kImm),
  row(Op::kParam,      "param",       nullptr, kSpecial, kActionData, 0,                 kW | kImm),
  row(Op::kMov,        "mov",         "",      kUnary,   kPure,       kA,                kW | kAlu),
  row(Op::kAdd,        "add",         "+",     kBinary,  kPure,       kA | kB,           kW | kAlu | kComm),
  row(Op::kSub,        "sub",         "-",     kBinary,  kPure,       kA | kB,           kW | kAlu),
  row(Op::kMul,        "mul",         "*",     kBinary,  kPure,       kA | kB,           kW | kAlu | kComm),
  row(Op::kShl,        "shl",         "<<",    kShift,   kPure,       kA | kB,           kW | kAlu),
  row(Op::kShr,        "shr",         ">>",    kShift,   kPure,       kA | kB,           kW | kAlu),
  row(Op::kAnd,        "and",         "&",     kBinary,  kPure,       kA | kB,           kW | kAlu | kComm),
  row(Op::kOr,         "or",          "|",     kBinary,  kPure,       kA | kB,           kW | kAlu | kComm),
  row(Op::kXor,        "xor",         "^",     kBinary,  kPure,       kA | kB,           kW | kAlu | kComm),
  row(Op::kNot,        "not",         "~",     kUnary,   kPure,       kA,                kW | kAlu),
  row(Op::kEq,         "eq",          "==",    kCompare, kPure,       kA | kB,           kW | kAlu | kComm),
  row(Op::kNe,         "ne",          "!=",    kCompare, kPure,       kA | kB,           kW | kAlu | kComm),
  row(Op::kLt,         "lt",          "<",     kCompare, kPure,       kA | kB,           kW | kAlu),
  row(Op::kGt,         "gt",          ">",     kCompare, kPure,       kA | kB,           kW | kAlu),
  row(Op::kLe,         "le",          "<=",    kCompare, kPure,       kA | kB,           kW | kAlu),
  row(Op::kGe,         "ge",          ">=",    kCompare, kPure,       kA | kB,           kW | kAlu),
  row(Op::kSelect,     "select",      nullptr, kSelect,  kPure,       kA | kB | kC,      kW | kAlu),
  row(Op::kLoadField,  "load_field",  nullptr, kSpecial, kField,      0,                 kW),
  row(Op::kStoreField, "store_field", nullptr, kSpecial, kField,      kA,                0),
  row(Op::kLoadReg,    "load_reg",    nullptr, kSpecial, kRegister,   kA,                kW),
  row(Op::kStoreReg,   "store_reg",   nullptr, kSpecial, kRegister,   kA | kB,           0),
  row(Op::kHash1,      "hash1",       nullptr, kSpecial, kPure,       kA,                kW),
  row(Op::kHash2,      "hash2",       nullptr, kSpecial, kPure,       kA,                kW),
  row(Op::kDigest,     "digest",      nullptr, kSpecial, kDigest,     kA | kB | kC | kD, kImm),
}};
// clang-format on

constexpr bool rows_in_enum_order() {
  for (std::size_t i = 0; i < kRows.size(); ++i) {
    if (kRows[i].op != static_cast<Op>(i)) return false;
  }
  return true;
}

}  // namespace op_table_detail

inline constexpr const std::array<OpInfo, kOpCount>& kOpTable =
    op_table_detail::kRows;

static_assert(op_table_detail::rows_in_enum_order(),
              "kOpTable rows must follow the Op enumerator order");

[[nodiscard]] constexpr const OpInfo& op_info(Op op) noexcept {
  return kOpTable[static_cast<std::size_t>(op)];
}

/// The value a pure op (`op_info(op).pure()`) writes to dst when its read
/// slots hold `a`, `b`, `c`; unread slots are ignored.  Returns 0 for the
/// impure ops, whose result depends on packet, register or action state.
[[nodiscard]] inline Word eval(Op op, Word imm, Word a, Word b,
                               Word c) noexcept {
  switch (op) {
    case Op::kConst: return imm;
    case Op::kMov: return a;
    case Op::kAdd: return a + b;
    case Op::kSub: return a - b;
    case Op::kMul: return a * b;
    case Op::kShl: return a << (b & 63);
    case Op::kShr: return a >> (b & 63);
    case Op::kAnd: return a & b;
    case Op::kOr: return a | b;
    case Op::kXor: return a ^ b;
    case Op::kNot: return ~a;
    case Op::kEq: return a == b ? 1 : 0;
    case Op::kNe: return a != b ? 1 : 0;
    case Op::kLt: return a < b ? 1 : 0;
    case Op::kGt: return a > b ? 1 : 0;
    case Op::kLe: return a <= b ? 1 : 0;
    case Op::kGe: return a >= b ? 1 : 0;
    case Op::kSelect: return a != 0 ? b : c;
    case Op::kHash1: return stat4::sparse_hash1(a);
    case Op::kHash2: return stat4::sparse_hash2(a);
    default: return 0;
  }
}

}  // namespace p4sim
