#include "p4sim/action.hpp"

#include <stdexcept>
#include <utility>

#include "stat4/approx_math.hpp"

namespace p4sim {

void Program::validate(const AluProfile& profile) const {
  if (code.size() > profile.max_instructions) {
    throw std::invalid_argument("p4sim: program '" + name +
                                "' exceeds the profile instruction budget");
  }
  for (const auto& ins : code) {
    if (ins.dst >= kTempCount || ins.a >= kTempCount || ins.b >= kTempCount ||
        ins.c >= kTempCount) {
      throw std::invalid_argument("p4sim: program '" + name +
                                  "' references a temp beyond the PHV pool");
    }
    if (ins.op == Op::kMul && !profile.has_mul) {
      throw std::invalid_argument(
          "p4sim: program '" + name +
          "' multiplies runtime values on a no-mul target (use "
          "approx_square)");
    }
  }
}

namespace {

/// Executes one instruction whose opcode is `kOp`.  With the opcode fixed at
/// compile time, eval() folds to the single operation it names.
template <Op kOp>
void step(const Instruction& ins, ExecutionContext& ctx) {
  auto& t = ctx.temps;
  if constexpr (op_info(kOp).pure()) {
    t[ins.dst] = eval(kOp, ins.imm, t[ins.a], t[ins.b], t[ins.c]);
  } else {
    switch (kOp) {
      case Op::kParam:
        t[ins.dst] = ins.imm < ctx.action_data.size()
                         ? ctx.action_data[ins.imm]
                         : 0;
        break;
      case Op::kLoadField: t[ins.dst] = ctx.view->get(ins.field); break;
      case Op::kStoreField: ctx.view->set(ins.field, t[ins.a]); break;
      case Op::kLoadReg:
        t[ins.dst] = ctx.registers->read(ins.reg, t[ins.a]);
        break;
      case Op::kStoreReg:
        ctx.registers->write(ins.reg, t[ins.a], t[ins.b]);
        break;
      case Op::kDigest:
        if (ctx.digests != nullptr && t[ins.c] != 0) {
          Digest d;
          d.id = static_cast<std::uint32_t>(ins.imm);
          d.payload = {t[ins.a], t[ins.b], t[ins.dst]};
          d.time = ctx.now;
          ctx.digests->push_back(d);
        }
        break;
      default:
        break;
    }
  }
}

/// Runs step<ins.op>.  At -O2 GCC's if-to-switch pass compiles this chain of
/// equality tests into one jump table, so each instruction costs a single
/// dispatch; a switch whose default case called eval(ins.op, ...) dispatches
/// twice and ran the interpreter about 1.7x slower (g++ 12, x86-64).
template <std::size_t... kOps>
void dispatch(const Instruction& ins, ExecutionContext& ctx,
              std::index_sequence<kOps...> /*unused*/) {
  (void)((ins.op == static_cast<Op>(kOps) &&
          (step<static_cast<Op>(kOps)>(ins, ctx), true)) ||
         ...);
}

}  // namespace

void execute(const Program& program, ExecutionContext& ctx) {
  for (const auto& ins : program.code) {
    dispatch(ins, ctx, std::make_index_sequence<kOpCount>{});
  }
}

void instruction_temps(const Instruction& ins, std::vector<TempId>& reads,
                       std::vector<TempId>& writes) {
  const OpInfo& info = op_info(ins.op);
  if (info.reads_a) reads.push_back(ins.a);
  if (info.reads_b) reads.push_back(ins.b);
  if (info.reads_c) reads.push_back(ins.c);
  if (info.reads_dst) reads.push_back(ins.dst);
  if (info.writes_dst) writes.push_back(ins.dst);
}

std::bitset<kTempCount> read_before_write(const Program& program) {
  std::bitset<kTempCount> rbw;
  std::bitset<kTempCount> written;
  std::vector<TempId> reads;
  std::vector<TempId> writes;
  for (const Instruction& ins : program.code) {
    reads.clear();
    writes.clear();
    instruction_temps(ins, reads, writes);
    for (const TempId id : reads) {
      if (!written[id]) rbw[id] = true;
    }
    for (const TempId id : writes) written[id] = true;
  }
  return rbw;
}

ProgramBuilder::ProgramBuilder(std::string name) {
  program_.name = std::move(name);
}

TempId ProgramBuilder::fresh() {
  if (next_temp_ >= kTempCount) {
    throw std::invalid_argument("p4sim: program '" + program_.name +
                                "' exhausted the PHV temp pool");
  }
  return next_temp_++;
}

TempId ProgramBuilder::emit2(Op op, TempId a, TempId b) {
  const TempId d = fresh();
  program_.code.push_back(Instruction{op, d, a, b, 0, 0, FieldRef::kEthType, 0});
  return d;
}

TempId ProgramBuilder::konst(Word v) {
  const TempId d = fresh();
  Instruction ins;
  ins.op = Op::kConst;
  ins.dst = d;
  ins.imm = v;
  program_.code.push_back(ins);
  return d;
}

TempId ProgramBuilder::param(std::size_t index) {
  const TempId d = fresh();
  Instruction ins;
  ins.op = Op::kParam;
  ins.dst = d;
  ins.imm = index;
  program_.code.push_back(ins);
  return d;
}

TempId ProgramBuilder::load_field(FieldRef f) {
  const TempId d = fresh();
  Instruction ins;
  ins.op = Op::kLoadField;
  ins.dst = d;
  ins.field = f;
  program_.code.push_back(ins);
  return d;
}

void ProgramBuilder::store_field(FieldRef f, TempId v) {
  Instruction ins;
  ins.op = Op::kStoreField;
  ins.a = v;
  ins.field = f;
  program_.code.push_back(ins);
}

TempId ProgramBuilder::load_reg(RegisterId r, TempId index) {
  const TempId d = fresh();
  Instruction ins;
  ins.op = Op::kLoadReg;
  ins.dst = d;
  ins.a = index;
  ins.reg = r;
  program_.code.push_back(ins);
  return d;
}

void ProgramBuilder::store_reg(RegisterId r, TempId index, TempId value) {
  Instruction ins;
  ins.op = Op::kStoreReg;
  ins.a = index;
  ins.b = value;
  ins.reg = r;
  program_.code.push_back(ins);
}

TempId ProgramBuilder::add(TempId a, TempId b) { return emit2(Op::kAdd, a, b); }
TempId ProgramBuilder::sub(TempId a, TempId b) { return emit2(Op::kSub, a, b); }
TempId ProgramBuilder::mul(TempId a, TempId b) { return emit2(Op::kMul, a, b); }
TempId ProgramBuilder::shl(TempId a, TempId b) { return emit2(Op::kShl, a, b); }
TempId ProgramBuilder::shr(TempId a, TempId b) { return emit2(Op::kShr, a, b); }
TempId ProgramBuilder::band(TempId a, TempId b) { return emit2(Op::kAnd, a, b); }
TempId ProgramBuilder::bor(TempId a, TempId b) { return emit2(Op::kOr, a, b); }
TempId ProgramBuilder::bxor(TempId a, TempId b) { return emit2(Op::kXor, a, b); }
TempId ProgramBuilder::eq(TempId a, TempId b) { return emit2(Op::kEq, a, b); }
TempId ProgramBuilder::ne(TempId a, TempId b) { return emit2(Op::kNe, a, b); }
TempId ProgramBuilder::lt(TempId a, TempId b) { return emit2(Op::kLt, a, b); }
TempId ProgramBuilder::gt(TempId a, TempId b) { return emit2(Op::kGt, a, b); }
TempId ProgramBuilder::le(TempId a, TempId b) { return emit2(Op::kLe, a, b); }
TempId ProgramBuilder::ge(TempId a, TempId b) { return emit2(Op::kGe, a, b); }

TempId ProgramBuilder::bnot(TempId a) {
  const TempId d = fresh();
  Instruction ins;
  ins.op = Op::kNot;
  ins.dst = d;
  ins.a = a;
  program_.code.push_back(ins);
  return d;
}

TempId ProgramBuilder::select(TempId cond, TempId if_true, TempId if_false) {
  const TempId d = fresh();
  Instruction ins;
  ins.op = Op::kSelect;
  ins.dst = d;
  ins.a = cond;
  ins.b = if_true;
  ins.c = if_false;
  program_.code.push_back(ins);
  return d;
}

void ProgramBuilder::mov_into(TempId dst, TempId src) {
  Instruction ins;
  ins.op = Op::kMov;
  ins.dst = dst;
  ins.a = src;
  program_.code.push_back(ins);
}

void ProgramBuilder::digest_if(TempId cond, std::uint32_t id, TempId w0,
                               TempId w1, TempId w2) {
  Instruction ins;
  ins.op = Op::kDigest;
  ins.imm = id;
  ins.a = w0;
  ins.b = w1;
  ins.c = cond;
  ins.dst = w2;
  program_.code.push_back(ins);
}

void ProgramBuilder::record_span(ApproxSpan::Fn fn, std::size_t begin,
                                 TempId in_a, TempId in_b, TempId out,
                                 std::uint32_t rel_num, std::uint32_t rel_den,
                                 std::uint64_t abs) {
  ApproxSpan span;
  span.fn = fn;
  span.begin = static_cast<std::uint32_t>(begin);
  span.end = static_cast<std::uint32_t>(program_.code.size());
  span.in_a = in_a;
  span.in_b = in_b;
  span.out = out;
  span.rel_num = rel_num;
  span.rel_den = rel_den;
  span.abs = abs;
  program_.approx_spans.push_back(span);
}

TempId ProgramBuilder::approx_mul(TempId a, TempId b) {
  const std::size_t begin = program_.code.size();
  const TempId ea = msb_index(a);
  const TempId eb = msb_index(b);
  const TempId one = konst(1);
  const TempId pow_ea = shl(one, ea);
  const TempId ra = sub(a, pow_ea);
  const TempId lead = shl(b, ea);   // 2^(ea+eb) + rb*2^ea
  const TempId cross = shl(ra, eb); // ra*2^eb
  const TempId result = add(lead, cross);
  // A zero operand must yield zero (msb paths would yield b or garbage).
  const TempId zero = konst(0);
  const TempId a_zero = eq(a, zero);
  const TempId b_zero = eq(b, zero);
  const TempId any_zero = bor(a_zero, b_zero);
  const TempId out = select(any_zero, zero, result);
  // Only the r_a*r_b cross term is dropped and r_x/x < 1/2, so the product
  // under-approximates by strictly less than a*b/4.
  record_span(ApproxSpan::Fn::kMul, begin, a, b, out, 1, 4, 0);
  return out;
}

TempId ProgramBuilder::hash1(TempId a) {
  const TempId d = fresh();
  Instruction ins;
  ins.op = Op::kHash1;
  ins.dst = d;
  ins.a = a;
  program_.code.push_back(ins);
  return d;
}

TempId ProgramBuilder::hash2(TempId a) {
  const TempId d = fresh();
  Instruction ins;
  ins.op = Op::kHash2;
  ins.dst = d;
  ins.a = a;
  program_.code.push_back(ins);
  return d;
}

TempId ProgramBuilder::mul_shift_add(TempId a, TempId b, unsigned bits) {
  if (bits == 0 || bits > 64) {
    throw std::invalid_argument("p4sim: mul_shift_add bits must be 1..64");
  }
  const TempId zero = konst(0);
  const TempId one = konst(1);
  // Accumulators reused across iterations to keep PHV usage O(bits).
  TempId acc = fresh();
  mov_into(acc, zero);
  TempId a_rem = fresh();
  mov_into(a_rem, a);
  TempId b_shifted = fresh();
  mov_into(b_shifted, b);
  for (unsigned i = 0; i < bits; ++i) {
    const TempId bit = band(a_rem, one);
    const TempId term = select(bit, b_shifted, zero);
    mov_into(acc, add(acc, term));
    if (i + 1 < bits) {
      mov_into(a_rem, shr(a_rem, one));
      mov_into(b_shifted, shl(b_shifted, one));
    }
  }
  return acc;
}

TempId ProgramBuilder::msb_index(TempId y) {
  // The paper's "sequence of ifs" (Section 3): a six-step binary search.
  // Each step tests whether the remaining value needs more than 2^k bits,
  // conditionally shifts it down and accumulates the position.
  TempId v = fresh();
  mov_into(v, y);
  TempId pos = konst(0);
  const TempId zero = konst(0);
  for (const Word k : {Word{32}, Word{16}, Word{8}, Word{4}, Word{2},
                       Word{1}}) {
    const TempId threshold = konst(Word{1} << k);
    const TempId cond = ge(v, threshold);
    const TempId amount = select(cond, konst(k), zero);
    const TempId shifted = shr(v, amount);
    mov_into(v, shifted);
    const TempId newpos = add(pos, amount);
    mov_into(pos, newpos);
  }
  return pos;
}

TempId ProgramBuilder::approx_sqrt(TempId y) {
  // Figure 2: pseudo-float shift.  e = msb(y), m = y - 2^e;
  // e1 = e >> 1; m1 = (m >> 1) | (parity(e) << (e-1));
  // result = 2^e1 | (m1 >> (e - e1)); inputs <= 1 pass through.
  const std::size_t begin = program_.code.size();
  const TempId one = konst(1);
  const TempId e = msb_index(y);
  const TempId pow_e = shl(one, e);
  const TempId m = sub(y, pow_e);
  const TempId e1 = shr(e, one);
  const TempId m_half = shr(m, one);
  const TempId parity = band(e, one);
  const TempId e_minus_1 = sub(e, one);          // e==0 => parity==0 anyway
  const TempId parity_bit = shl(parity, e_minus_1);
  const TempId m1 = bor(m_half, parity_bit);
  const TempId pow_e1 = shl(one, e1);
  const TempId tail_shift = sub(e, e1);
  const TempId tail = shr(m1, tail_shift);
  const TempId result = bor(pow_e1, tail);
  const TempId is_small = le(y, one);
  const TempId out = select(is_small, y, result);
  // The linear-mantissa interpolation overshoots sqrt(y) by at most
  // (3 - 2*sqrt(2)) ~ 6.1% and the mantissa truncation undershoots by at
  // most ~2 units, so 1/8 relative + 2 absolute covers both directions.
  record_span(ApproxSpan::Fn::kSqrt, begin, y, y, out, 1, 8, 2);
  return out;
}

TempId ProgramBuilder::approx_log2(TempId y) {
  // e = msb(y); m = y - 2^e; frac = (e >= 8) ? m >> (e-8) : m << (8-e);
  // result = (e << 8) | frac; inputs <= 1 map to 0.
  const std::size_t begin = program_.code.size();
  const TempId zero = konst(0);
  const TempId one = konst(1);
  const TempId frac_bits = konst(stat4::kLog2FracBits);
  const TempId e = msb_index(y);
  const TempId pow_e = shl(one, e);
  const TempId m = sub(y, pow_e);
  const TempId wide = ge(e, frac_bits);
  // Both shift amounts are computed; the wrapped (&63) one is unselected.
  const TempId right = shr(m, sub(e, frac_bits));
  const TempId left = shl(m, sub(frac_bits, e));
  const TempId frac = select(wide, right, left);
  const TempId result = bor(shl(e, frac_bits), frac);
  const TempId small = le(y, one);
  const TempId out = select(small, zero, result);
  // Max error of the linear-fraction approximation is ~0.086 bits, i.e.
  // ~22 output units at 8 fractional bits; 24 rounds up (y <= 1 -> 0 is
  // the declared convention, not an error).
  record_span(ApproxSpan::Fn::kLog2, begin, y, y, out, 0, 1, 24);
  return out;
}

TempId ProgramBuilder::approx_square(TempId y) {
  // Shift-based squaring (Section 2 / Ding et al.):
  //   y^2 ~= 2^(2e) + r * 2^(e+1)   with e = msb(y), r = y - 2^e.
  const std::size_t begin = program_.code.size();
  const TempId one = konst(1);
  const TempId e = msb_index(y);
  const TempId pow_e = shl(one, e);
  const TempId r = sub(y, pow_e);
  const TempId two_e = shl(e, one);
  const TempId lead = shl(one, two_e);
  const TempId e_plus_1 = add(e, one);
  const TempId cross = shl(r, e_plus_1);
  const TempId result = add(lead, cross);
  const TempId zero = konst(0);
  const TempId is_zero = eq(y, zero);
  const TempId out = select(is_zero, zero, result);
  // Drops only r^2 and r = y - 2^e < y/2, so the undershoot is < y^2/4.
  record_span(ApproxSpan::Fn::kSquare, begin, y, y, out, 1, 4, 0);
  return out;
}

Program ProgramBuilder::take() { return std::move(program_); }

}  // namespace p4sim
