#include "p4sim/threaded.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <initializer_list>
#include <iterator>
#include <numeric>

#include "stat4/sparse_freq.hpp"

namespace p4sim {
namespace {

// Internal opcodes: 0..25 mirror Op exactly (threaded_compile casts the Op
// straight through); the tail adds the forms the pre-decode optimizer
// lowers to — dynamic-register dispatch (programs naming an undeclared
// array keep the interpreter's out_of_range throw), immediate-operand ALU
// variants (one side constant-folded into the op), constant-index register
// accesses with the cell pointer fully pre-resolved, fused compare+select
// pairs, the skip handler that heads a guarded run, and the stream
// terminator.
enum InternalOp : std::uint8_t {
  kOpConst,
  kOpParam,
  kOpMov,
  kOpAdd,
  kOpSub,
  kOpMul,
  kOpShl,
  kOpShr,
  kOpAnd,
  kOpOr,
  kOpXor,
  kOpNot,
  kOpEq,
  kOpNe,
  kOpLt,
  kOpGt,
  kOpLe,
  kOpGe,
  kOpSelect,
  kOpLoadField,
  kOpStoreField,
  kOpLoadReg,
  kOpStoreReg,
  kOpHash1,
  kOpHash2,
  kOpDigest,
  kOpLoadRegDyn,
  kOpStoreRegDyn,
  // t[dst] = t[a] <op> imm  (imm pre-masked for the shifts)
  kOpAddImm,
  kOpSubImm,
  kOpRsubImm,  ///< t[dst] = imm - t[a]
  kOpMulImm,
  kOpShlImm,
  kOpShrImm,
  kOpAndImm,
  kOpOrImm,
  kOpXorImm,
  kOpEqImm,
  kOpNeImm,
  kOpLtImm,
  kOpGtImm,
  kOpLeImm,
  kOpGeImm,
  // Constant in-bounds index: reg_base points at THE cell.
  kOpLoadRegAt,   ///< t[dst] = *reg_base
  kOpStoreRegAt,  ///< *reg_base = t[b] & reg_mask
  // t[dst] = (t[a] <cmp> t[b]) ? t[c] : t[e]
  kOpEqSel,
  kOpNeSel,
  kOpLtSel,
  kOpGtSel,
  kOpLeSel,
  kOpGeSel,
  // t[dst] = (t[a] <cmp> imm) ? t[c] : t[e]
  kOpEqImmSel,
  kOpNeImmSel,
  kOpLtImmSel,
  kOpGtImmSel,
  kOpLeImmSel,
  kOpGeImmSel,
  // Select with one constant-folded data operand.
  kOpSelImmB,  ///< t[dst] = t[a] ? imm : t[c]
  kOpSelImmC,  ///< t[dst] = t[a] ? t[b] : imm
  // Fused imm-compare + imm-select: the comparison constant lives in imm,
  // the select's constant data operand in imm2 (the reg_mask slot — unused
  // by ALU ops, so the struct stays one size).
  kOpEqImmSelImmB,  ///< t[dst] = (t[a] == imm) ? imm2 : t[c]
  kOpNeImmSelImmB,
  kOpLtImmSelImmB,
  kOpGtImmSelImmB,
  kOpLeImmSelImmB,
  kOpGeImmSelImmB,
  kOpEqImmSelImmC,  ///< t[dst] = (t[a] == imm) ? t[b] : imm2
  kOpNeImmSelImmC,
  kOpLtImmSelImmC,
  kOpGtImmSelImmC,
  kOpLeImmSelImmC,
  kOpGeImmSelImmC,
  // Guarded run: when t[a] == 0, jump over the next imm ops.
  kOpSkipIfZero,
  kOpEnd,
};
inline constexpr std::size_t kHandlerCount = kOpEnd + 1;

static_assert(static_cast<std::uint8_t>(Op::kConst) == kOpConst &&
                  static_cast<std::uint8_t>(Op::kSelect) == kOpSelect &&
                  static_cast<std::uint8_t>(Op::kDigest) == kOpDigest &&
                  kOpLoadRegDyn == kOpCount,
              "InternalOp prefix must mirror Op ordinal for ordinal cast");

void emit_digest(ThreadedState* st, const ThreadedOp* op) {
  Digest d;
  d.id = static_cast<std::uint32_t>(op->imm);
  d.payload = {st->temps[op->a], st->temps[op->b], st->temps[op->dst]};
  d.time = st->now;
  st->digests->push_back(d);
}

// Taking the address of a label is a GNU extension (GCC and Clang, the
// only compilers the build supports); the repo builds with -Wpedantic
// -Werror, so the extension is acknowledged explicitly here.
#pragma GCC diagnostic push
#if defined(__clang__)
#pragma GCC diagnostic ignored "-Wgnu-label-as-value"
#else
#pragma GCC diagnostic ignored "-Wpedantic"
#endif

/// Executes the op stream at `op` over `st`.  Called with st == nullptr it
/// executes nothing and returns the handler-label table instead (only way
/// to read function-local label addresses) — threaded_compile uses that to
/// pre-resolve each op's handler.  It starts on a cache line: with the same
/// machine code, its speed has been seen to follow its start address.
[[gnu::aligned(64)]] const void* const* threaded_core(const ThreadedOp* op,
                                                      ThreadedState* st) {
  static const void* const kLabels[] = {
      &&l_const,      &&l_param,      &&l_mov,         &&l_add,
      &&l_sub,        &&l_mul,        &&l_shl,         &&l_shr,
      &&l_and,        &&l_or,         &&l_xor,         &&l_not,
      &&l_eq,         &&l_ne,         &&l_lt,          &&l_gt,
      &&l_le,         &&l_ge,         &&l_select,      &&l_load_field,
      &&l_store_field, &&l_load_reg,  &&l_store_reg,   &&l_hash1,
      &&l_hash2,      &&l_digest,     &&l_load_reg_dyn, &&l_store_reg_dyn,
      &&l_add_imm,    &&l_sub_imm,    &&l_rsub_imm,    &&l_mul_imm,
      &&l_shl_imm,    &&l_shr_imm,    &&l_and_imm,     &&l_or_imm,
      &&l_xor_imm,    &&l_eq_imm,     &&l_ne_imm,      &&l_lt_imm,
      &&l_gt_imm,     &&l_le_imm,     &&l_ge_imm,      &&l_load_reg_at,
      &&l_store_reg_at, &&l_eq_sel,   &&l_ne_sel,      &&l_lt_sel,
      &&l_gt_sel,     &&l_le_sel,     &&l_ge_sel,      &&l_eq_imm_sel,
      &&l_ne_imm_sel, &&l_lt_imm_sel, &&l_gt_imm_sel,  &&l_le_imm_sel,
      &&l_ge_imm_sel, &&l_sel_imm_b,  &&l_sel_imm_c,
      &&l_eq_imm_sel_imm_b, &&l_ne_imm_sel_imm_b, &&l_lt_imm_sel_imm_b,
      &&l_gt_imm_sel_imm_b, &&l_le_imm_sel_imm_b, &&l_ge_imm_sel_imm_b,
      &&l_eq_imm_sel_imm_c, &&l_ne_imm_sel_imm_c, &&l_lt_imm_sel_imm_c,
      &&l_gt_imm_sel_imm_c, &&l_le_imm_sel_imm_c, &&l_ge_imm_sel_imm_c,
      &&l_skip_if_zero, &&l_end};
  static_assert(std::size(kLabels) == kHandlerCount,
                "one handler label per internal op");
  if (st == nullptr) return kLabels;
  Word* const t = st->temps;
#define STAT4_THREADED_NEXT() goto* (++op)->handler
  goto* op->handler;
l_const:
  t[op->dst] = op->imm;
  STAT4_THREADED_NEXT();
l_param:
  t[op->dst] = op->imm < st->action_data_len ? st->action_data[op->imm] : 0;
  STAT4_THREADED_NEXT();
l_mov:
  t[op->dst] = t[op->a];
  STAT4_THREADED_NEXT();
l_add:
  t[op->dst] = t[op->a] + t[op->b];
  STAT4_THREADED_NEXT();
l_sub:
  t[op->dst] = t[op->a] - t[op->b];
  STAT4_THREADED_NEXT();
l_mul:
  t[op->dst] = t[op->a] * t[op->b];
  STAT4_THREADED_NEXT();
l_shl:
  t[op->dst] = t[op->a] << (t[op->b] & 63);
  STAT4_THREADED_NEXT();
l_shr:
  t[op->dst] = t[op->a] >> (t[op->b] & 63);
  STAT4_THREADED_NEXT();
l_and:
  t[op->dst] = t[op->a] & t[op->b];
  STAT4_THREADED_NEXT();
l_or:
  t[op->dst] = t[op->a] | t[op->b];
  STAT4_THREADED_NEXT();
l_xor:
  t[op->dst] = t[op->a] ^ t[op->b];
  STAT4_THREADED_NEXT();
l_not:
  t[op->dst] = ~t[op->a];
  STAT4_THREADED_NEXT();
l_eq:
  t[op->dst] = t[op->a] == t[op->b] ? 1 : 0;
  STAT4_THREADED_NEXT();
l_ne:
  t[op->dst] = t[op->a] != t[op->b] ? 1 : 0;
  STAT4_THREADED_NEXT();
l_lt:
  t[op->dst] = t[op->a] < t[op->b] ? 1 : 0;
  STAT4_THREADED_NEXT();
l_gt:
  t[op->dst] = t[op->a] > t[op->b] ? 1 : 0;
  STAT4_THREADED_NEXT();
l_le:
  t[op->dst] = t[op->a] <= t[op->b] ? 1 : 0;
  STAT4_THREADED_NEXT();
l_ge:
  t[op->dst] = t[op->a] >= t[op->b] ? 1 : 0;
  STAT4_THREADED_NEXT();
l_select:
  t[op->dst] = t[op->a] ? t[op->b] : t[op->c];
  STAT4_THREADED_NEXT();
l_load_field:
  t[op->dst] = st->view->get(op->field);
  STAT4_THREADED_NEXT();
l_store_field:
  st->view->set(op->field, t[op->a]);
  STAT4_THREADED_NEXT();
l_load_reg: {
  const Word idx = t[op->a];
  t[op->dst] = idx < op->reg_size ? op->reg_base[idx] : 0;
}
  STAT4_THREADED_NEXT();
l_store_reg: {
  const Word idx = t[op->a];
  if (idx < op->reg_size) op->reg_base[idx] = t[op->b] & op->reg_mask;
}
  STAT4_THREADED_NEXT();
l_hash1:
  t[op->dst] = stat4::sparse_hash1(t[op->a]);
  STAT4_THREADED_NEXT();
l_hash2:
  t[op->dst] = stat4::sparse_hash2(t[op->a]);
  STAT4_THREADED_NEXT();
l_digest:
  if (st->digests != nullptr && t[op->c] != 0) emit_digest(st, op);
  STAT4_THREADED_NEXT();
l_load_reg_dyn:
  t[op->dst] = st->registers->read(op->reg, t[op->a]);
  STAT4_THREADED_NEXT();
l_store_reg_dyn:
  st->registers->write(op->reg, t[op->a], t[op->b]);
  STAT4_THREADED_NEXT();
l_add_imm:
  t[op->dst] = t[op->a] + op->imm;
  STAT4_THREADED_NEXT();
l_sub_imm:
  t[op->dst] = t[op->a] - op->imm;
  STAT4_THREADED_NEXT();
l_rsub_imm:
  t[op->dst] = op->imm - t[op->a];
  STAT4_THREADED_NEXT();
l_mul_imm:
  t[op->dst] = t[op->a] * op->imm;
  STAT4_THREADED_NEXT();
l_shl_imm:
  t[op->dst] = t[op->a] << op->imm;
  STAT4_THREADED_NEXT();
l_shr_imm:
  t[op->dst] = t[op->a] >> op->imm;
  STAT4_THREADED_NEXT();
l_and_imm:
  t[op->dst] = t[op->a] & op->imm;
  STAT4_THREADED_NEXT();
l_or_imm:
  t[op->dst] = t[op->a] | op->imm;
  STAT4_THREADED_NEXT();
l_xor_imm:
  t[op->dst] = t[op->a] ^ op->imm;
  STAT4_THREADED_NEXT();
l_eq_imm:
  t[op->dst] = t[op->a] == op->imm ? 1 : 0;
  STAT4_THREADED_NEXT();
l_ne_imm:
  t[op->dst] = t[op->a] != op->imm ? 1 : 0;
  STAT4_THREADED_NEXT();
l_lt_imm:
  t[op->dst] = t[op->a] < op->imm ? 1 : 0;
  STAT4_THREADED_NEXT();
l_gt_imm:
  t[op->dst] = t[op->a] > op->imm ? 1 : 0;
  STAT4_THREADED_NEXT();
l_le_imm:
  t[op->dst] = t[op->a] <= op->imm ? 1 : 0;
  STAT4_THREADED_NEXT();
l_ge_imm:
  t[op->dst] = t[op->a] >= op->imm ? 1 : 0;
  STAT4_THREADED_NEXT();
l_load_reg_at:
  t[op->dst] = *op->reg_base;
  STAT4_THREADED_NEXT();
l_store_reg_at:
  *op->reg_base = t[op->b] & op->reg_mask;
  STAT4_THREADED_NEXT();
l_eq_sel:
  t[op->dst] = t[op->a] == t[op->b] ? t[op->c] : t[op->e];
  STAT4_THREADED_NEXT();
l_ne_sel:
  t[op->dst] = t[op->a] != t[op->b] ? t[op->c] : t[op->e];
  STAT4_THREADED_NEXT();
l_lt_sel:
  t[op->dst] = t[op->a] < t[op->b] ? t[op->c] : t[op->e];
  STAT4_THREADED_NEXT();
l_gt_sel:
  t[op->dst] = t[op->a] > t[op->b] ? t[op->c] : t[op->e];
  STAT4_THREADED_NEXT();
l_le_sel:
  t[op->dst] = t[op->a] <= t[op->b] ? t[op->c] : t[op->e];
  STAT4_THREADED_NEXT();
l_ge_sel:
  t[op->dst] = t[op->a] >= t[op->b] ? t[op->c] : t[op->e];
  STAT4_THREADED_NEXT();
l_eq_imm_sel:
  t[op->dst] = t[op->a] == op->imm ? t[op->c] : t[op->e];
  STAT4_THREADED_NEXT();
l_ne_imm_sel:
  t[op->dst] = t[op->a] != op->imm ? t[op->c] : t[op->e];
  STAT4_THREADED_NEXT();
l_lt_imm_sel:
  t[op->dst] = t[op->a] < op->imm ? t[op->c] : t[op->e];
  STAT4_THREADED_NEXT();
l_gt_imm_sel:
  t[op->dst] = t[op->a] > op->imm ? t[op->c] : t[op->e];
  STAT4_THREADED_NEXT();
l_le_imm_sel:
  t[op->dst] = t[op->a] <= op->imm ? t[op->c] : t[op->e];
  STAT4_THREADED_NEXT();
l_ge_imm_sel:
  t[op->dst] = t[op->a] >= op->imm ? t[op->c] : t[op->e];
  STAT4_THREADED_NEXT();
l_sel_imm_b:
  t[op->dst] = t[op->a] ? op->imm : t[op->c];
  STAT4_THREADED_NEXT();
l_sel_imm_c:
  t[op->dst] = t[op->a] ? t[op->b] : op->imm;
  STAT4_THREADED_NEXT();
l_eq_imm_sel_imm_b:
  t[op->dst] = t[op->a] == op->imm ? op->reg_mask : t[op->c];
  STAT4_THREADED_NEXT();
l_ne_imm_sel_imm_b:
  t[op->dst] = t[op->a] != op->imm ? op->reg_mask : t[op->c];
  STAT4_THREADED_NEXT();
l_lt_imm_sel_imm_b:
  t[op->dst] = t[op->a] < op->imm ? op->reg_mask : t[op->c];
  STAT4_THREADED_NEXT();
l_gt_imm_sel_imm_b:
  t[op->dst] = t[op->a] > op->imm ? op->reg_mask : t[op->c];
  STAT4_THREADED_NEXT();
l_le_imm_sel_imm_b:
  t[op->dst] = t[op->a] <= op->imm ? op->reg_mask : t[op->c];
  STAT4_THREADED_NEXT();
l_ge_imm_sel_imm_b:
  t[op->dst] = t[op->a] >= op->imm ? op->reg_mask : t[op->c];
  STAT4_THREADED_NEXT();
l_eq_imm_sel_imm_c:
  t[op->dst] = t[op->a] == op->imm ? t[op->b] : op->reg_mask;
  STAT4_THREADED_NEXT();
l_ne_imm_sel_imm_c:
  t[op->dst] = t[op->a] != op->imm ? t[op->b] : op->reg_mask;
  STAT4_THREADED_NEXT();
l_lt_imm_sel_imm_c:
  t[op->dst] = t[op->a] < op->imm ? t[op->b] : op->reg_mask;
  STAT4_THREADED_NEXT();
l_gt_imm_sel_imm_c:
  t[op->dst] = t[op->a] > op->imm ? t[op->b] : op->reg_mask;
  STAT4_THREADED_NEXT();
l_le_imm_sel_imm_c:
  t[op->dst] = t[op->a] <= op->imm ? t[op->b] : op->reg_mask;
  STAT4_THREADED_NEXT();
l_ge_imm_sel_imm_c:
  t[op->dst] = t[op->a] >= op->imm ? t[op->b] : op->reg_mask;
  STAT4_THREADED_NEXT();
l_skip_if_zero:
  if (t[op->a] == 0) op += static_cast<std::ptrdiff_t>(op->imm);
  STAT4_THREADED_NEXT();
l_end:
  return nullptr;
#undef STAT4_THREADED_NEXT
}

#pragma GCC diagnostic pop

// ---------------------------------------------------------------- optimizer

/// Bits of an op's model: the temp slots it reads, in the order its reads
/// are listed, whether it writes dst, and whether it is pure.
enum ModelBit : std::uint8_t {
  kReadA = 1,
  kReadB = 2,
  kReadC = 4,
  kReadE = 8,
  kReadDst = 16,  ///< kOpDigest: dst is the third payload word
  kWrites = 32,
  kPure = 64,  ///< no effect beyond writing dst
  kValue = kWrites | kPure,
};

/// Operand model of one internal op, the optimizer's mirror of its handler
/// above.  Stores, digests, the control ops and the dynamic-register forms
/// (which can throw) are not pure, so no pass may eliminate them.  The
/// passes learn an op's operands from this model only.
struct OpModel {
  std::uint8_t opcode;
  std::uint8_t bits;  ///< ModelBit
};

/// One row per internal op, in InternalOp order: ops named together share
/// a row's bits.  The ops that mirror an Op take their row from kOpTable:
/// their register accesses are pre-bound to a window, so cannot throw, and
/// each one that writes dst is pure.
constexpr std::array<OpModel, kHandlerCount> kModel = [] {
  std::array<OpModel, kHandlerCount> model{};
  std::size_t next = 0;
  const auto rows = [&](unsigned bits, std::initializer_list<InternalOp> ops) {
    for (const InternalOp op : ops) {
      model[next++] = {op, static_cast<std::uint8_t>(bits)};
    }
  };
  for (const OpInfo& info : kOpTable) {
    rows((info.reads_a ? kReadA : 0) | (info.reads_b ? kReadB : 0) |
             (info.reads_c ? kReadC : 0) | (info.reads_dst ? kReadDst : 0) |
             (info.writes_dst ? kValue : 0),
         {static_cast<InternalOp>(info.op)});
  }
  rows(kReadA | kWrites, {kOpLoadRegDyn});
  rows(kReadA | kReadB, {kOpStoreRegDyn});
  rows(kReadA | kValue, {kOpAddImm, kOpSubImm, kOpRsubImm, kOpMulImm,
                         kOpShlImm, kOpShrImm, kOpAndImm, kOpOrImm, kOpXorImm});
  rows(kReadA | kValue,
       {kOpEqImm, kOpNeImm, kOpLtImm, kOpGtImm, kOpLeImm, kOpGeImm});
  rows(kValue, {kOpLoadRegAt});
  rows(kReadB, {kOpStoreRegAt});
  rows(kReadA | kReadB | kReadC | kReadE | kValue,
       {kOpEqSel, kOpNeSel, kOpLtSel, kOpGtSel, kOpLeSel, kOpGeSel});
  rows(kReadA | kReadC | kReadE | kValue,
       {kOpEqImmSel, kOpNeImmSel, kOpLtImmSel, kOpGtImmSel, kOpLeImmSel,
        kOpGeImmSel});
  rows(kReadA | kReadC | kValue, {kOpSelImmB});
  rows(kReadA | kReadB | kValue, {kOpSelImmC});
  rows(kReadA | kReadC | kValue,
       {kOpEqImmSelImmB, kOpNeImmSelImmB, kOpLtImmSelImmB, kOpGtImmSelImmB,
        kOpLeImmSelImmB, kOpGeImmSelImmB});
  rows(kReadA | kReadB | kValue,
       {kOpEqImmSelImmC, kOpNeImmSelImmC, kOpLtImmSelImmC, kOpGtImmSelImmC,
        kOpLeImmSelImmC, kOpGeImmSelImmC});
  rows(kReadA, {kOpSkipIfZero});
  rows(0, {kOpEnd});
  return model;
}();

static_assert(
    [] {
      for (std::size_t i = 0; i < kHandlerCount; ++i) {
        if (kModel[i].opcode != i) return false;
      }
      return true;
    }(),
    "kModel must name every internal op once, in InternalOp order");

/// Calls `f` on each temp field `op` reads, in slot order; on a mutable op,
/// copy propagation redirects the reads through it.
template <typename ThreadedOpRef, typename F>
void for_each_read(ThreadedOpRef& op, F&& f) {
  const unsigned bits = kModel[op.opcode].bits;
  if ((bits & kReadA) != 0) f(op.a);
  if ((bits & kReadB) != 0) f(op.b);
  if ((bits & kReadC) != 0) f(op.c);
  if ((bits & kReadE) != 0) f(op.e);
  if ((bits & kReadDst) != 0) f(op.dst);
}

/// An op's model with its reads listed.
struct OpIO {
  std::array<TempId, 4> reads{};
  std::size_t nreads = 0;
  bool writes = false;
  bool pure = false;
};

OpIO op_io(const ThreadedOp& op) {
  OpIO io;
  for_each_read(op, [&io](TempId id) { io.reads[io.nreads++] = id; });
  io.writes = (kModel[op.opcode].bits & kWrites) != 0;
  io.pure = (kModel[op.opcode].bits & kPure) != 0;
  return io;
}

/// The form at `offset` in the family that starts at `first`.  Selection
/// finds forms this way in families that list their ops in Op's order, as
/// kModel's rows and their static_assert pin: the immediate arithmetic
/// forms around rsub, and the six comparison families, each eq, ne, lt, gt,
/// le, ge, so that a comparison's mirror (lt and gt, le and ge: operands
/// swapped) is at offset ^ 1.
std::uint8_t form(InternalOp first, unsigned offset) {
  return static_cast<std::uint8_t>(first + offset);
}

/// The immediate form of `op`: t[a] <op> imm for a constant right operand.
/// For a constant left operand (`left`) it is the form computing the same
/// value from t[b]: a commutative op keeps its form, sub becomes rsub and a
/// comparison becomes its mirror.  0 when none exists (imm << t and
/// imm >> t stay two ops).
std::uint8_t imm_form(Op op, bool left) {
  const unsigned o = static_cast<unsigned>(op);
  const bool mirrored = left && !op_info(op).commutative;
  if (o >= kOpEq && o <= kOpGe) {
    return form(kOpEqImm, mirrored ? (o - kOpEq) ^ 1 : o - kOpEq);
  }
  if (mirrored) return op == Op::kSub ? kOpRsubImm : 0;
  if (o >= kOpAdd && o <= kOpSub) return form(kOpAddImm, o - kOpAdd);
  if (o >= kOpMul && o <= kOpXor) return form(kOpMulImm, o - kOpMul);
  return 0;
}

/// The fused form of comparison `cmp` directly followed by select `sel`
/// (kOpSelect, kOpSelImmB or kOpSelImmC) on its result; 0 when none
/// exists.  A reg-reg comparison fuses with a plain select only: no
/// handler takes a constant arm with two compared temps.
std::uint8_t fused_form(unsigned cmp, std::uint8_t sel) {
  const bool imm = cmp >= kOpEqImm && cmp <= kOpGeImm;
  if (!imm && (cmp < kOpEq || cmp > kOpGe)) return 0;
  const unsigned offset = cmp - (imm ? unsigned{kOpEqImm} : unsigned{kOpEq});
  if (sel == kOpSelect) return form(imm ? kOpEqImmSel : kOpEqSel, offset);
  if (!imm || (sel != kOpSelImmB && sel != kOpSelImmC)) return 0;
  return form(sel == kOpSelImmB ? kOpEqImmSelImmB : kOpEqImmSelImmC, offset);
}

// ------------------------------------------------------------ guarded runs

/// Shortest run worth a skip handler.  The handler costs one dispatch on
/// every packet and saves the run's dispatches only on packets whose guard
/// is zero, so a run of 8 pays for itself once its guard is zero on more
/// than one packet in nine.
constexpr std::size_t kMinGuardedRun = 8;

/// When a read stops mattering: a select's true arm when the condition
/// (op.a) is zero, an `and` operand when the other operand is zero, a digest
/// payload word when the digest's condition (op.c) is zero.
enum class ReadRole : std::uint8_t { kPlain, kTrueArm, kAndOperand, kPayload };

struct RoleRead {
  TempId temp = 0;
  ReadRole role = ReadRole::kPlain;
};

/// The reads `io` of `op`, in the same order, each tagged with its role.
std::size_t role_reads(const ThreadedOp& op, const OpIO& io,
                       std::array<RoleRead, 4>& out) {
  const std::size_t n = std::min<std::size_t>(io.nreads, out.size());
  for (std::size_t r = 0; r < n; ++r) out[r] = {io.reads[r]};
  switch (static_cast<InternalOp>(op.opcode)) {
    case kOpSelect:   // reads a, b, c
    case kOpSelImmC:  // reads a, b
      out[1].role = ReadRole::kTrueArm;
      break;
    case kOpAnd:
      out[0].role = out[1].role = ReadRole::kAndOperand;
      break;
    case kOpDigest:  // reads a, b, c, dst
      out[0].role = out[1].role = out[3].role = ReadRole::kPayload;
      break;
    default:
      break;
  }
  return n;
}

bool test_bit(const std::uint64_t* bits, std::size_t i) {
  return ((bits[i / 64] >> (i % 64)) & 1) != 0;
}

void set_bit(std::uint64_t* bits, std::size_t i) {
  bits[i / 64] |= std::uint64_t{1} << (i % 64);
}

void clear_bit(std::uint64_t* bits, std::size_t i) {
  bits[i / 64] &= ~(std::uint64_t{1} << (i % 64));
}

/// The index of the lowest set bit of `b`, word `w` of a bit row.
std::size_t bit_index(std::size_t w, std::uint64_t b) {
  return w * 64 + static_cast<std::size_t>(std::countr_zero(b));
}

/// Calls `f` on every set bit of the `words`-word row `bits`, lowest first.
template <typename F>
void for_each_bit(const std::uint64_t* bits, std::size_t words, F&& f) {
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t b = bits[w]; b != 0; b &= b - 1) f(bit_index(w, b));
  }
}

/// Pass 4 of threaded_compile: demand analysis + guarded-run scheduling.
/// Returns how many ops it put behind skip handlers; `ops` is left exactly
/// as it was when no run reaches kMinGuardedRun.
std::size_t schedule_guarded_runs(std::vector<ThreadedOp>& ops,
                                  const std::bitset<kTempCount>& observable,
                                  std::size_t register_arrays,
                                  std::size_t temps) {
  using Index = std::uint32_t;
  constexpr Index kNone = ~Index{0};
  const auto n = static_cast<Index>(ops.size());
  if (n < kMinGuardedRun) return 0;  // no run can be long enough

  // ---- def-use: per read, the op whose write it sees (kNone: the temp's
  // value on entry) and the def of the guard its role names.
  struct Use {
    Index def = kNone;
    Index guard = kNone;
  };
  std::vector<Use> uses;
  uses.reserve(std::size_t{4} * n);
  std::vector<std::size_t> use_begin(n + 1, 0);
  std::vector<OpIO> io(n);
  std::vector<Index> redef(n, kNone);  ///< next write of the same temp
  std::vector<char> pinned(n, 0);      ///< must run: effects, live-out defs
  {
    std::vector<Index> last_def(temps, kNone);
    std::array<RoleRead, 4> reads;
    for (Index j = 0; j < n; ++j) {
      const ThreadedOp& op = ops[j];
      io[j] = op_io(op);
      const std::size_t nr = role_reads(op, io[j], reads);
      for (std::size_t r = 0; r < nr; ++r) {
        Use u{last_def[reads[r].temp]};
        switch (reads[r].role) {
          case ReadRole::kTrueArm: u.guard = last_def[op.a]; break;
          case ReadRole::kPayload: u.guard = last_def[op.c]; break;
          case ReadRole::kAndOperand: {
            // Only the later-defined operand waits on the earlier one.
            const Index other = last_def[r == 0 ? op.b : op.a];
            if (other < u.def) u.guard = other;
            break;
          }
          case ReadRole::kPlain: break;
        }
        uses.push_back(u);
      }
      use_begin[j + 1] = uses.size();
      pinned[j] = io[j].pure ? 0 : 1;
      if (io[j].writes) {
        if (last_def[op.dst] != kNone) redef[last_def[op.dst]] = j;
        last_def[op.dst] = j;
      }
    }
    // A write with no redef is its temp's final def.
    for (Index j = 0; j < n; ++j) {
      if (io[j].writes && redef[j] == kNone && observable[ops[j].dst]) {
        pinned[j] = 1;
      }
    }
  }

  // ---- candidate guards: every def some role names, closed over `and`
  // operands (a & b != 0 implies a != 0 and b != 0), numbered in def order.
  // A constant is no guard: it would either never skip or guard dead code.
  std::vector<char> is_guard(n, 0);
  const auto mark = [&](Index g) {
    if (g != kNone && ops[g].opcode != kOpConst) is_guard[g] = 1;
  };
  for (const Use& u : uses) mark(u.guard);
  const auto is_and = [&ops](Index g) {
    return ops[g].opcode == kOpAnd || ops[g].opcode == kOpAndImm;
  };
  for (Index g = n; g-- > 0;) {
    if (!is_guard[g] || !is_and(g)) continue;
    for (std::size_t k = use_begin[g]; k < use_begin[g + 1]; ++k) {
      mark(uses[k].def);
    }
  }
  std::vector<Index> guard_id(n, kNone);
  std::vector<Index> guard_def;
  for (Index g = 0; g < n; ++g) {
    if (is_guard[g]) {
      guard_id[g] = static_cast<Index>(guard_def.size());
      guard_def.push_back(g);
    }
  }
  const std::size_t guards = guard_def.size();
  if (guards == 0) return 0;

  // Guard sets are bit rows of `words` words over guard ids.
  const std::size_t words = (guards + 63) / 64;
  const auto row = [words](std::vector<std::uint64_t>& rows, std::size_t i) {
    return rows.data() + i * words;
  };
  std::vector<std::uint64_t> closure(guards * words, 0);
  for (std::size_t c = 0; c < guards; ++c) {
    std::uint64_t* out = row(closure, c);
    set_bit(out, c);
    const Index g = guard_def[c];
    if (!is_and(g)) continue;
    for (std::size_t k = use_begin[g]; k < use_begin[g + 1]; ++k) {
      if (uses[k].def == kNone || !is_guard[uses[k].def]) continue;
      const std::uint64_t* in = row(closure, guard_id[uses[k].def]);
      for (std::size_t w = 0; w < words; ++w) out[w] |= in[w];
    }
  }

  // ---- demand, backwards: need(i) is the set of guards any of which being
  // zero makes op i's result irrelevant — the intersection, over i's reads,
  // of the reader's need plus the read's own guard (and its closure).
  // Pinned ops need nothing: they always run.  (After pass 2 every pure op
  // nothing reads is the final def of an observable temp, so pinned.)
  std::vector<std::uint64_t> need(std::size_t{n} * words, ~std::uint64_t{0});
  for (Index j = n; j-- > 0;) {
    std::uint64_t* nj = row(need, j);
    if (pinned[j]) std::fill_n(nj, words, 0);
    for (std::size_t k = use_begin[j]; k < use_begin[j + 1]; ++k) {
      const Use& u = uses[k];
      if (u.def == kNone) continue;
      std::uint64_t* nd = row(need, u.def);
      const std::uint64_t* extra = u.guard != kNone && is_guard[u.guard]
                                       ? row(closure, guard_id[u.guard])
                                       : nullptr;
      for (std::size_t w = 0; w < words; ++w) {
        nd[w] &= nj[w] | (extra != nullptr ? extra[w] : 0);
      }
    }
  }

  // An op may only sit behind a guard defined before it: the scheduler
  // sinks guarded work below its guard, it never hoists a guard.
  std::vector<std::uint32_t> sharing(guards, 0);  ///< ops each guard covers
  std::size_t guardable = 0;
  for (Index i = 0, defined = 0; i < n; ++i) {
    std::uint64_t* ni = row(need, i);
    bool any = false;
    for (std::size_t w = 0; w < words; ++w) {
      const std::size_t lo = w * 64;
      if (defined <= lo) {
        ni[w] = 0;
      } else if (defined < lo + 64) {
        ni[w] &= (std::uint64_t{1} << (defined - lo)) - 1;
      }
      any |= ni[w] != 0;
    }
    if (any) ++guardable;
    for_each_bit(ni, words, [&](std::size_t c) { ++sharing[c]; });
    if (is_guard[i]) ++defined;
  }
  if (guardable < kMinGuardedRun) return 0;

  // Each op prefers its most selective guard: one that no other guard of its
  // set implies (g = a & b is zero whenever a is, and possibly more often),
  // the most shared on a tie.  A guard fewer than kMinGuardedRun
  // ops prefer cannot head a worthwhile run, so it is dropped and its ops
  // choose again.  Each set is walked from its last guard down: a closure
  // names only earlier guards and contains the closures of the guards it
  // names, so an implied guard is in the closure of one already walked, and
  // only the unimplied guards add their closures.
  std::vector<Index> prefer(n, kNone);
  {
    std::vector<std::uint64_t> live(words, ~std::uint64_t{0});
    std::vector<std::uint64_t> implied(words);
    for (bool dropped = true; dropped;) {
      std::vector<std::uint32_t> preferred_by(guards, 0);
      for (Index i = 0; i < n; ++i) {
        const std::uint64_t* ni = row(need, i);
        std::fill(implied.begin(), implied.end(), 0);
        std::size_t best = guards;
        for (std::size_t w = words; w-- > 0;) {
          for (std::uint64_t b = ni[w] & live[w]; b != 0;) {
            const std::size_t h =
                w * 64 + static_cast<std::size_t>(63 - std::countl_zero(b));
            b &= ~(std::uint64_t{1} << (h % 64));
            if (test_bit(implied.data(), h)) continue;
            const std::uint64_t* ch = row(closure, h);
            for (std::size_t v = 0; v < words; ++v) implied[v] |= ch[v];
            if (best == guards || sharing[h] > sharing[best]) best = h;
          }
        }
        prefer[i] = best == guards ? kNone : static_cast<Index>(best);
        if (best != guards) ++preferred_by[best];
      }
      dropped = false;
      for (std::size_t c = 0; c < guards; ++c) {
        if (test_bit(live.data(), c) && preferred_by[c] < kMinGuardedRun) {
          clear_bit(live.data(), c);
          dropped = true;
        }
      }
    }
  }
  if (std::all_of(prefer.begin(), prefer.end(),
                  [](Index g) { return g == kNone; })) {
    return 0;
  }

  // ---- dependences: reads after their defs; every op before the next
  // write of a temp it reads or writes; register and field loads between
  // the stores to the same array or field around them; effects in order.
  std::vector<std::pair<Index, Index>> edges;
  edges.reserve(2 * uses.size() + std::size_t{4} * n);
  const auto location = [](const ThreadedOp& op) -> Index {
    switch (static_cast<InternalOp>(op.opcode)) {
      case kOpLoadField:
      case kOpStoreField:
        return static_cast<Index>(op.field);
      // Declared arrays only: pass 1 lowers the rest to the Dyn forms.
      case kOpLoadReg:
      case kOpLoadRegAt:
      case kOpStoreReg:
      case kOpStoreRegAt:
        return static_cast<Index>(kFieldCount + op.reg);
      default:
        return kNone;
    }
  };
  const std::size_t locations = kFieldCount + register_arrays;
  {
    std::vector<Index> last_store(locations, kNone);
    Index last_effect = kNone;
    for (Index j = 0; j < n; ++j) {
      for (std::size_t k = use_begin[j]; k < use_begin[j + 1]; ++k) {
        if (uses[k].def != kNone) edges.emplace_back(uses[k].def, j);
      }
      const Index loc = location(ops[j]);
      if (!io[j].pure) {
        if (last_effect != kNone) edges.emplace_back(last_effect, j);
        last_effect = j;
        if (loc != kNone) last_store[loc] = j;
      } else if (loc != kNone && last_store[loc] != kNone) {
        edges.emplace_back(last_store[loc], j);
      }
    }
    std::vector<Index> next_def(temps, kNone);
    std::vector<Index> next_store(locations, kNone);
    for (Index j = n; j-- > 0;) {
      for (std::size_t r = 0; r < io[j].nreads; ++r) {
        if (next_def[io[j].reads[r]] != kNone) {
          edges.emplace_back(j, next_def[io[j].reads[r]]);
        }
      }
      if (io[j].writes) {
        if (next_def[ops[j].dst] != kNone) {
          edges.emplace_back(j, next_def[ops[j].dst]);
        }
        next_def[ops[j].dst] = j;
      }
      const Index loc = location(ops[j]);
      if (loc == kNone) continue;
      if (!io[j].pure) {
        next_store[loc] = j;
      } else if (next_store[loc] != kNone) {
        edges.emplace_back(j, next_store[loc]);
      }
    }
  }
  std::vector<std::size_t> succ_begin(n + 1, 0);
  std::vector<std::size_t> pred_begin(n + 1, 0);
  for (const auto& [from, to] : edges) {
    ++succ_begin[from + 1];
    ++pred_begin[to + 1];
  }
  for (Index i = 0; i < n; ++i) {
    succ_begin[i + 1] += succ_begin[i];
    pred_begin[i + 1] += pred_begin[i];
  }
  std::vector<Index> succ(edges.size());
  std::vector<Index> pred(edges.size());
  {
    std::vector<std::size_t> s_at(succ_begin.begin(), succ_begin.end() - 1);
    std::vector<std::size_t> p_at(pred_begin.begin(), pred_begin.end() - 1);
    for (const auto& [from, to] : edges) {
      succ[s_at[from]++] = to;
      pred[p_at[to]++] = from;
    }
  }

  // ---- list scheduling in program order, except that the first ready op
  // with a guard opens a run: first the unguarded ops the guard's other
  // ops wait on are hoisted, then every op the guard covers is emitted as
  // soon as it is ready.  Op sets are bit rows of `op_words` words: the
  // lowest ready op of a set is its first bit in (ready & set).
  const std::size_t op_words = (n + 63) / 64;
  std::vector<std::uint64_t> ready(op_words, 0);
  std::vector<std::uint64_t> emitted(op_words, 0);
  std::vector<std::uint64_t> hoist(op_words, 0);
  std::vector<std::uint64_t> cover(guards * op_words, 0);  ///< per guard
  std::vector<std::size_t> waiting(n);
  for (Index i = 0; i < n; ++i) {
    if (prefer[i] != kNone) set_bit(cover.data() + prefer[i] * op_words, i);
    waiting[i] = pred_begin[i + 1] - pred_begin[i];
    if (waiting[i] == 0) set_bit(ready.data(), i);
  }
  std::vector<Index> order;
  order.reserve(n);
  const auto lowest_ready = [&](const std::uint64_t* in) -> Index {
    for (std::size_t w = 0; w < op_words; ++w) {
      const std::uint64_t b =
          ready[w] & (in != nullptr ? in[w] : ~std::uint64_t{0});
      if (b != 0) return static_cast<Index>(bit_index(w, b));
    }
    return kNone;
  };
  const auto emit = [&](Index i) {
    clear_bit(ready.data(), i);
    set_bit(emitted.data(), i);
    order.push_back(i);
    for (std::size_t e = succ_begin[i]; e < succ_begin[i + 1]; ++e) {
      if (--waiting[succ[e]] == 0) set_bit(ready.data(), succ[e]);
    }
  };
  const auto emit_ready_while = [&](const std::uint64_t* in) {
    for (Index i; (i = lowest_ready(in)) != kNone;) emit(i);
  };
  struct Run {
    std::size_t begin = 0;
    std::size_t end = 0;
    TempId guard = 0;
  };
  std::vector<Run> runs;
  std::vector<Index> stack;
  for (Index m; (m = lowest_ready(nullptr)) != kNone;) {
    const Index best = prefer[m];
    // The guard's value must still be in its temp: defined, not yet
    // overwritten (non-SSA temp reuse).
    const Index g = best == kNone ? kNone : guard_def[best];
    if (g == kNone || !test_bit(emitted.data(), g) ||
        (redef[g] != kNone && test_bit(emitted.data(), redef[g]))) {
      emit(m);
      continue;
    }
    const std::uint64_t* covered = cover.data() + best * op_words;
    stack.clear();
    for_each_bit(covered, op_words, [&](std::size_t i) {
      if (!test_bit(emitted.data(), i)) stack.push_back(static_cast<Index>(i));
    });
    // The next write of the guard's temp is never hoisted above the
    // handler, which tests that temp where the run begins; unless the
    // guard covers that write too, the ops waiting on it stay out of the
    // run (and so does every later write of the temp).
    while (!stack.empty()) {
      const Index i = stack.back();
      stack.pop_back();
      for (std::size_t e = pred_begin[i]; e < pred_begin[i + 1]; ++e) {
        const Index p = pred[e];
        if (test_bit(emitted.data(), p) || test_bit(hoist.data(), p) ||
            prefer[p] != kNone || p == redef[g]) {
          continue;
        }
        set_bit(hoist.data(), p);
        stack.push_back(p);
      }
    }
    emit_ready_while(hoist.data());
    std::fill(hoist.begin(), hoist.end(), 0);
    const std::size_t begin = order.size();
    emit_ready_while(covered);
    if (order.size() - begin >= kMinGuardedRun) {
      runs.push_back({begin, order.size(), ops[g].dst});
    }
  }
  if (runs.empty()) return 0;

  std::vector<ThreadedOp> out;
  out.reserve(ops.size() + runs.size() + 1);  // + the terminator
  std::size_t guarded = 0;
  auto run = runs.begin();
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    if (run != runs.end() && run->begin == pos) {
      ThreadedOp skip;
      skip.opcode = kOpSkipIfZero;
      skip.a = run->guard;
      skip.imm = run->end - run->begin;
      out.push_back(skip);
      guarded += run->end - run->begin;
      ++run;
    }
    out.push_back(ops[order[pos]]);
  }
  ops = std::move(out);
  return guarded;
}

}  // namespace

ThreadedProgram threaded_compile(const Program& program,
                                 RegisterFile& registers,
                                 const std::bitset<kTempCount>& observable) {
  // ---- pass 1: lower + straight-line constant propagation ----------------
  // Straight-line code makes the dataflow exact: a temp holds a known value
  // from the op that wrote it until the next op that overwrites it.  Every
  // fold calls p4sim::eval, the evaluator the interpreter itself runs, so
  // optimization can never change results — the differential suites replay
  // every catalog app to prove it.
  std::vector<ThreadedOp> ops;
  ops.reserve(program.code.size() + 1);
  // Temp-indexed tables span the temps this action names, not kTempCount.
  std::size_t top = 0;
  for (const Instruction& ins : program.code) {
    top = std::max(top, std::size_t{ins.dst});
    top = std::max(top, std::size_t{ins.a});
    top = std::max(top, std::size_t{ins.b});
    top = std::max(top, std::size_t{ins.c});
  }
  const std::size_t temps = top + 1;
  std::vector<char> known(temps, 0);
  std::vector<Word> value(temps, 0);
  const auto set_known = [&](TempId id, Word v) {
    known[id] = 1;
    value[id] = v;
  };
  const auto clobber = [&](TempId id) { known[id] = 0; };

  for (const Instruction& ins : program.code) {
    ThreadedOp op;
    op.opcode = static_cast<std::uint8_t>(ins.op);
    op.dst = ins.dst;
    op.a = ins.a;
    op.b = ins.b;
    op.c = ins.c;
    op.field = ins.field;
    op.reg = ins.reg;
    op.imm = ins.imm;

    const OpInfo& info = op_info(ins.op);
    if (info.pure() && (!info.reads_a || known[ins.a]) &&
        (!info.reads_b || known[ins.b]) && (!info.reads_c || known[ins.c])) {
      op.opcode = kOpConst;
      op.imm = eval(ins.op, ins.imm, value[ins.a], value[ins.b], value[ins.c]);
      set_known(ins.dst, op.imm);
      ops.push_back(op);
      continue;
    }

    switch (ins.op) {
      case Op::kSelect:
        if (known[ins.a]) {
          const TempId src = value[ins.a] != 0 ? ins.b : ins.c;
          if (known[src]) {
            op.opcode = kOpConst;
            op.imm = value[src];
            set_known(ins.dst, op.imm);
          } else {
            op.opcode = kOpMov;
            op.a = src;
            clobber(ins.dst);
          }
        } else {
          // Unknown condition: fold a constant data operand into the op
          // (at most one — there is a single imm slot; prefer b).
          if (known[ins.b]) {
            op.opcode = kOpSelImmB;
            op.imm = value[ins.b];
          } else if (known[ins.c]) {
            op.opcode = kOpSelImmC;
            op.imm = value[ins.c];
          }
          clobber(ins.dst);
        }
        break;
      case Op::kLoadReg:
      case Op::kStoreReg:
        if (ins.reg < registers.array_count()) {
          const RegisterWindow w = registers.window(ins.reg);
          op.reg_base = w.base;
          op.reg_size = w.size;
          op.reg_mask = w.mask;
          if (known[ins.a]) {
            const Word idx = value[ins.a];
            if (ins.op == Op::kLoadReg) {
              if (idx < w.size) {
                op.opcode = kOpLoadRegAt;
                op.reg_base = w.base + idx;
              } else {
                op.opcode = kOpConst;  // OOB read is 0
                op.imm = 0;
              }
            } else {
              if (idx < w.size) {
                op.opcode = kOpStoreRegAt;
                op.reg_base = w.base + idx;
              } else {
                continue;  // OOB write is dropped — whole op vanishes
              }
            }
          }
        } else {
          // Undeclared array: keep the interpreter's throwing dispatch.
          op.opcode = ins.op == Op::kLoadReg ? kOpLoadRegDyn : kOpStoreRegDyn;
        }
        if (op.opcode == kOpConst) {
          set_known(ins.dst, 0);
        } else if (info.writes_dst) {
          clobber(ins.dst);
        }
        break;
      default:  // pure ops with an unknown input, and the rest of the externs
        if (known[ins.b] && imm_form(ins.op, /*left=*/false) != 0) {
          op.opcode = imm_form(ins.op, /*left=*/false);
          op.imm = info.shape == OpShape::kShift ? (value[ins.b] & 63)
                                                 : value[ins.b];
        } else if (known[ins.a] && imm_form(ins.op, /*left=*/true) != 0) {
          op.opcode = imm_form(ins.op, /*left=*/true);
          op.a = ins.b;
          op.imm = value[ins.a];
        }
        if (info.writes_dst) clobber(ins.dst);
        break;
    }
    ops.push_back(op);
  }

  // ---- pass 1.5: copy propagation ----------------------------------------
  // Straight-line: while `root[t] == s`, t holds the same value as s, so
  // reads of t are redirected to s and the kOpMov that created the alias
  // becomes dead (pass 2 collects it unless its dst is observable).  An
  // alias dies when either side is overwritten: a write to t replaces
  // root[t], and a write to s bumps version[s] past the version the alias
  // recorded, so invalidation costs O(1) per write.
  {
    std::vector<TempId> root(temps);
    std::vector<std::uint32_t> version(temps, 0);  ///< writes so far
    std::vector<std::uint32_t> root_version(temps, 0);
    std::iota(root.begin(), root.end(), TempId{0});
    const auto resolve = [&](TempId& id) {
      if (version[root[id]] == root_version[id]) id = root[id];
    };
    for (ThreadedOp& op : ops) {
      for_each_read(op, resolve);
      if ((kModel[op.opcode].bits & kWrites) != 0) {
        ++version[op.dst];
        root[op.dst] =
            op.opcode == kOpMov ? op.a : op.dst;  // a is already rooted
        root_version[op.dst] = version[root[op.dst]];
      }
    }
  }

  // ---- pass 2: dead-code elimination -------------------------------------
  // Backwards liveness seeded with `observable`: a pure op whose dst no
  // later op in this program reads and no installed action can read before
  // writing (tables dispatch dynamically, so any action may run next) is
  // dropped.  This is where the constants that got folded into immediates
  // disappear.
  {
    std::bitset<kTempCount> live = observable;
    std::vector<char> keep(ops.size(), 1);
    for (std::size_t i = ops.size(); i-- > 0;) {
      const OpIO io = op_io(ops[i]);
      if (io.pure && !live[ops[i].dst]) {
        keep[i] = 0;
        continue;
      }
      if (io.writes) live.reset(ops[i].dst);
      for (std::size_t r = 0; r < io.nreads; ++r) live.set(io.reads[r]);
    }
    std::size_t w = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (keep[i]) ops[w++] = ops[i];
    }
    ops.resize(w);
  }

  // ---- pass 3: compare+select fusion -------------------------------------
  // cmp(dst=c) directly followed by select(cond=c) collapses into one op
  // when nothing else observes the comparison bit: c must not feed the
  // select's data operands, must not be observable cross-action, and no
  // later op may read it before writing it.
  {
    // read_later[i]: some op after i + 1 reads ops[i].dst before rewriting
    // it — one backward liveness scan for every pair.
    std::vector<char> read_later(ops.size(), 0);
    std::vector<char> live(temps, 0);
    for (std::size_t k = ops.size(); k-- > 1;) {
      read_later[k - 1] = live[ops[k - 1].dst];
      const OpIO io = op_io(ops[k]);
      if (io.writes) live[ops[k].dst] = 0;
      for (std::size_t r = 0; r < io.nreads; ++r) live[io.reads[r]] = 1;
    }
    std::size_t w = 0;
    for (std::size_t i = 0; i < ops.size(); ++i, ++w) {
      if (w != i) ops[w] = ops[i];
      if (i + 1 >= ops.size()) continue;
      const ThreadedOp& sel = ops[i + 1];
      const TempId cond = ops[w].dst;
      const std::uint8_t fused =
          sel.a == cond ? fused_form(ops[w].opcode, sel.opcode) : 0;
      if (fused == 0) continue;
      std::size_t cond_reads = 0;  // once as sel.a; no data operand may
      for_each_read(sel, [&](TempId t) { cond_reads += t == cond; });
      if (cond_reads > 1) continue;
      // sel.dst == cond: the select overwrote the comparison bit anyway, so
      // later readers see the select result in both shapes.  Otherwise cond
      // must be invisible: not cross-action observable and re-written before
      // any later read in this program.
      if (sel.dst != cond && (observable[cond] || read_later[i])) continue;
      ops[w].opcode = fused;
      ops[w].dst = sel.dst;
      if (sel.opcode == kOpSelect) {
        ops[w].c = sel.b;
        ops[w].e = sel.c;
      } else if (sel.opcode == kOpSelImmB) {
        ops[w].reg_mask = sel.imm;  // true-branch constant
        ops[w].c = sel.c;
      } else {  // kOpSelImmC
        ops[w].reg_mask = sel.imm;  // false-branch constant
        ops[w].b = sel.b;
      }
      ++i;  // the select is consumed
    }
    ops.resize(w);
  }

  // ---- pass 4: guarded runs ----------------------------------------------
  // Work whose result only matters while some select condition, `and`
  // operand or digest condition is non-zero is grouped behind a
  // skip-if-zero handler on that temp (see schedule_guarded_runs).
  ThreadedProgram out;
  out.guarded_ops =
      schedule_guarded_runs(ops, observable, registers.array_count(), temps);
  out.ops = std::move(ops);
  ThreadedOp end;
  end.opcode = kOpEnd;
  out.ops.push_back(end);
  const void* const* labels = threaded_core(nullptr, nullptr);
  for (ThreadedOp& op : out.ops) op.handler = labels[op.opcode];
  return out;
}

void threaded_execute(const ThreadedProgram& program, ThreadedState& state) {
  threaded_core(program.ops.data(), &state);
}

}  // namespace p4sim
