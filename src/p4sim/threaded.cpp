#include "p4sim/threaded.hpp"

#include <array>

#include "stat4/sparse_freq.hpp"

namespace p4sim {
namespace {

// Internal opcodes: 0..25 mirror Op exactly (threaded_compile casts the Op
// straight through); the tail adds the forms the pre-decode optimizer
// lowers to — dynamic-register dispatch (programs naming an undeclared
// array keep the interpreter's out_of_range throw), immediate-operand ALU
// variants (one side constant-folded into the op), constant-index register
// accesses with the cell pointer fully pre-resolved, fused compare+select
// pairs, and the stream terminator.
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
/// pre-resolve each op's handler.
const void* const* threaded_core(const ThreadedOp* op, ThreadedState* st) {
  static const void* const kLabels[kHandlerCount] = {
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
      &&l_end};
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
l_end:
  return nullptr;
#undef STAT4_THREADED_NEXT
}

#pragma GCC diagnostic pop

// ---------------------------------------------------------------- optimizer

/// Read/write model of one lowered op — the optimizer's mirror of the
/// handler bodies above.  `pure` means "no effect beyond writing dst":
/// store/digest ops and the dynamic-register forms (which can throw) must
/// never be eliminated.  The ops that mirror an Op take both from kOpTable
/// (their register accesses are pre-bound to a window, so cannot throw).
struct OpIO {
  std::array<TempId, 4> reads{};
  std::size_t nreads = 0;
  bool writes = false;
  bool pure = false;
};

OpIO op_io(const ThreadedOp& op) {
  OpIO io;
  const auto r = [&io](TempId id) { io.reads[io.nreads++] = id; };
  if (op.opcode < kOpCount) {
    const OpInfo& info = op_info(static_cast<Op>(op.opcode));
    if (info.reads_a) r(op.a);
    if (info.reads_b) r(op.b);
    if (info.reads_c) r(op.c);
    if (info.reads_dst) r(op.dst);
    io.writes = io.pure = info.writes_dst;
    return io;
  }
  switch (static_cast<InternalOp>(op.opcode)) {
    case kOpLoadRegAt:
      io.writes = io.pure = true;
      break;
    case kOpAddImm:
    case kOpSubImm:
    case kOpRsubImm:
    case kOpMulImm:
    case kOpShlImm:
    case kOpShrImm:
    case kOpAndImm:
    case kOpOrImm:
    case kOpXorImm:
    case kOpEqImm:
    case kOpNeImm:
    case kOpLtImm:
    case kOpGtImm:
    case kOpLeImm:
    case kOpGeImm:
      io.writes = io.pure = true;
      r(op.a);
      break;
    case kOpSelImmC:
    case kOpEqImmSelImmC:
    case kOpNeImmSelImmC:
    case kOpLtImmSelImmC:
    case kOpGtImmSelImmC:
    case kOpLeImmSelImmC:
    case kOpGeImmSelImmC:
      io.writes = io.pure = true;
      r(op.a);
      r(op.b);
      break;
    case kOpSelImmB:
    case kOpEqImmSelImmB:
    case kOpNeImmSelImmB:
    case kOpLtImmSelImmB:
    case kOpGtImmSelImmB:
    case kOpLeImmSelImmB:
    case kOpGeImmSelImmB:
      io.writes = io.pure = true;
      r(op.a);
      r(op.c);
      break;
    case kOpEqImmSel:
    case kOpNeImmSel:
    case kOpLtImmSel:
    case kOpGtImmSel:
    case kOpLeImmSel:
    case kOpGeImmSel:
      io.writes = io.pure = true;
      r(op.a);
      r(op.c);
      r(op.e);
      break;
    case kOpEqSel:
    case kOpNeSel:
    case kOpLtSel:
    case kOpGtSel:
    case kOpLeSel:
    case kOpGeSel:
      io.writes = io.pure = true;
      r(op.a);
      r(op.b);
      r(op.c);
      r(op.e);
      break;
    case kOpStoreRegDyn:
      r(op.a);
      r(op.b);
      break;
    case kOpStoreRegAt:
      r(op.b);
      break;
    case kOpLoadRegDyn:  // not pure: unknown arrays throw
      io.writes = true;
      r(op.a);
      break;
    default:  // kOpEnd
      break;
  }
  return io;
}

/// Applies `f` to every operand field of `op` that is a READ of a temp —
/// the mutable mirror of op_io's read list, used by copy propagation to
/// redirect reads at the copy's source.
template <typename F>
void for_each_read(ThreadedOp& op, F&& f) {
  const OpIO io = op_io(op);
  // op_io reports the read VALUES in field order a, b/c/e, (digest: dst);
  // map them back onto the fields by matching the same switch groups.
  switch (static_cast<InternalOp>(op.opcode)) {
    case kOpDigest:
      f(op.a);
      f(op.b);
      f(op.c);
      f(op.dst);
      return;
    case kOpStoreRegAt:
      f(op.b);
      return;
    default:
      break;
  }
  // Remaining ops read a prefix of (a, then b or c, then c or e) — walk
  // the canonical order and stop after io.nreads fields.
  std::size_t left = io.nreads;
  if (left == 0) return;
  f(op.a);
  if (--left == 0) return;
  switch (static_cast<InternalOp>(op.opcode)) {
    case kOpSelImmB:
    case kOpEqImmSelImmB:
    case kOpNeImmSelImmB:
    case kOpLtImmSelImmB:
    case kOpGtImmSelImmB:
    case kOpLeImmSelImmB:
    case kOpGeImmSelImmB:
      f(op.c);
      return;
    case kOpEqImmSel:
    case kOpNeImmSel:
    case kOpLtImmSel:
    case kOpGtImmSel:
    case kOpLeImmSel:
    case kOpGeImmSel:
      f(op.c);
      f(op.e);
      return;
    default:
      f(op.b);
      if (--left == 0) return;
      f(op.c);
      if (--left == 0) return;
      f(op.e);
      return;
  }
}

/// The immediate-operand form of `op` with the constant on the RIGHT
/// (t[a] <op> imm); 0 when none exists.
std::uint8_t imm_form(Op op) {
  switch (op) {
    case Op::kAdd: return kOpAddImm;
    case Op::kSub: return kOpSubImm;
    case Op::kMul: return kOpMulImm;
    case Op::kShl: return kOpShlImm;
    case Op::kShr: return kOpShrImm;
    case Op::kAnd: return kOpAndImm;
    case Op::kOr: return kOpOrImm;
    case Op::kXor: return kOpXorImm;
    case Op::kEq: return kOpEqImm;
    case Op::kNe: return kOpNeImm;
    case Op::kLt: return kOpLtImm;
    case Op::kGt: return kOpGtImm;
    case Op::kLe: return kOpLeImm;
    case Op::kGe: return kOpGeImm;
    default: return 0;
  }
}

/// The immediate-operand form with the constant on the LEFT
/// (imm <op> t[b]), rewritten as an equivalent right-imm op on t[b];
/// 0 when the op cannot be mirrored.
std::uint8_t imm_form_swapped(Op op) {
  switch (op) {
    case Op::kAdd: return kOpAddImm;
    case Op::kMul: return kOpMulImm;
    case Op::kAnd: return kOpAndImm;
    case Op::kOr: return kOpOrImm;
    case Op::kXor: return kOpXorImm;
    case Op::kEq: return kOpEqImm;
    case Op::kNe: return kOpNeImm;
    case Op::kSub: return kOpRsubImm;  // imm - t[b]
    case Op::kLt: return kOpGtImm;     // imm <  t  ⇔  t >  imm
    case Op::kGt: return kOpLtImm;
    case Op::kLe: return kOpGeImm;
    case Op::kGe: return kOpLeImm;
    default: return 0;  // imm << t / imm >> t stay two ops
  }
}

/// The fused compare+select form of a comparison opcode; 0 when `opcode`
/// is not a comparison.
std::uint8_t sel_form(std::uint8_t opcode) {
  switch (static_cast<InternalOp>(opcode)) {
    case kOpEq: return kOpEqSel;
    case kOpNe: return kOpNeSel;
    case kOpLt: return kOpLtSel;
    case kOpGt: return kOpGtSel;
    case kOpLe: return kOpLeSel;
    case kOpGe: return kOpGeSel;
    case kOpEqImm: return kOpEqImmSel;
    case kOpNeImm: return kOpNeImmSel;
    case kOpLtImm: return kOpLtImmSel;
    case kOpGtImm: return kOpGtImmSel;
    case kOpLeImm: return kOpLeImmSel;
    case kOpGeImm: return kOpGeImmSel;
    default: return 0;
  }
}

/// Fused imm-compare + kOpSelImmB form; 0 unless `opcode` is an imm
/// comparison (the second immediate rides in the reg_mask slot, which
/// reg-reg comparisons fused with an imm-select would also need — those
/// pairs simply stay unfused).
std::uint8_t sel_imm_b_form(std::uint8_t opcode) {
  switch (static_cast<InternalOp>(opcode)) {
    case kOpEqImm: return kOpEqImmSelImmB;
    case kOpNeImm: return kOpNeImmSelImmB;
    case kOpLtImm: return kOpLtImmSelImmB;
    case kOpGtImm: return kOpGtImmSelImmB;
    case kOpLeImm: return kOpLeImmSelImmB;
    case kOpGeImm: return kOpGeImmSelImmB;
    default: return 0;
  }
}

/// Fused imm-compare + kOpSelImmC form; 0 unless `opcode` is an imm
/// comparison.
std::uint8_t sel_imm_c_form(std::uint8_t opcode) {
  switch (static_cast<InternalOp>(opcode)) {
    case kOpEqImm: return kOpEqImmSelImmC;
    case kOpNeImm: return kOpNeImmSelImmC;
    case kOpLtImm: return kOpLtImmSelImmC;
    case kOpGtImm: return kOpGtImmSelImmC;
    case kOpLeImm: return kOpLeImmSelImmC;
    case kOpGeImm: return kOpGeImmSelImmC;
    default: return 0;
  }
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
  std::vector<char> known(kTempCount, 0);
  std::vector<Word> value(kTempCount, 0);
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
      case Op::kStoreField:
      case Op::kDigest:
        break;  // no temp written
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
        if (ins.op == Op::kLoadReg) {
          if (op.opcode == kOpConst) {
            set_known(ins.dst, 0);
          } else {
            clobber(ins.dst);
          }
        }
        break;
      default:  // kParam, kLoadField, and pure ops with an unknown input
        if (known[ins.b] && imm_form(ins.op) != 0) {
          op.opcode = imm_form(ins.op);
          op.imm = info.shape == OpShape::kShift ? (value[ins.b] & 63)
                                                 : value[ins.b];
        } else if (known[ins.a] && imm_form_swapped(ins.op) != 0) {
          op.opcode = imm_form_swapped(ins.op);
          op.a = ins.b;
          op.imm = value[ins.a];
        }
        clobber(ins.dst);
        break;
    }
    ops.push_back(op);
  }

  // ---- pass 1.5: copy propagation ----------------------------------------
  // Straight-line: while `root[t] == s`, t holds the same value as s, so
  // reads of t are redirected to s and the kOpMov that created the alias
  // becomes dead (pass 2 collects it unless its dst is observable).  An
  // alias dies when either side is overwritten.
  {
    std::vector<TempId> root(kTempCount);
    for (std::size_t i = 0; i < kTempCount; ++i) {
      root[i] = static_cast<TempId>(i);
    }
    for (ThreadedOp& op : ops) {
      for_each_read(op, [&root](TempId& id) { id = root[id]; });
      const OpIO io = op_io(op);
      if (io.writes) {
        for (std::size_t t = 0; t < kTempCount; ++t) {
          if (root[t] == op.dst) root[t] = static_cast<TempId>(t);
        }
        root[op.dst] =
            op.opcode == kOpMov ? op.a : op.dst;  // a is already rooted
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
    std::size_t w = 0;
    for (std::size_t i = 0; i < ops.size(); ++i, ++w) {
      if (w != i) ops[w] = ops[i];
      if (i + 1 >= ops.size()) continue;
      const ThreadedOp& sel = ops[i + 1];
      const TempId cond = ops[w].dst;
      std::uint8_t fused = 0;
      bool data_reads_cond = true;
      if (sel.a == cond) {
        if (sel.opcode == kOpSelect) {
          fused = sel_form(ops[w].opcode);
          data_reads_cond = sel.b == cond || sel.c == cond;
        } else if (sel.opcode == kOpSelImmB) {
          fused = sel_imm_b_form(ops[w].opcode);
          data_reads_cond = sel.c == cond;
        } else if (sel.opcode == kOpSelImmC) {
          fused = sel_imm_c_form(ops[w].opcode);
          data_reads_cond = sel.b == cond;
        }
      }
      if (fused == 0 || data_reads_cond) continue;
      // sel.dst == cond: the select overwrote the comparison bit anyway, so
      // later readers see the select result in both shapes.  Otherwise cond
      // must be invisible: not cross-action observable and re-written before
      // any later read in this program.
      if (sel.dst != cond) {
        if (observable[cond]) continue;
        bool cond_dead = true;
        for (std::size_t j = i + 2; j < ops.size(); ++j) {
          const OpIO io = op_io(ops[j]);
          bool reads_cond = false;
          for (std::size_t r = 0; r < io.nreads; ++r) {
            reads_cond |= io.reads[r] == cond;
          }
          if (reads_cond) {
            cond_dead = false;
            break;
          }
          if (io.writes && ops[j].dst == cond) break;  // re-written first
        }
        if (!cond_dead) continue;
      }
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

  ThreadedProgram out;
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
