#include "analysis/precision.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <tuple>

#include "analysis/acceleration.hpp"
#include "analysis/pipeline_model.hpp"
#include "analysis/symbolic.hpp"
#include "p4sim/disasm.hpp"

namespace analysis {

namespace {

using p4sim::ApproxSpan;
using p4sim::FieldRef;
using p4sim::Instruction;
using p4sim::Op;
using p4sim::Program;
using p4sim::Word;

/// One abstract value: implemented-value interval (ideal-integer 128-bit,
/// as in the overflow pass) + proven error vs the mixed-semantics ideal.
///
/// `absolute` records whether `err` bounds the REAL difference
/// |ideal - impl|, not merely the ring distance.  Ring-only errors survive
/// translation (add/sub/shl/mask) but cannot be divided (shr) or scaled
/// (mul): a ring representative may be off by a multiple of 2^64, which
/// division smears into a non-multiple.  Absolute bounds are restored at
/// every width-masked store, where the ideal is re-anchored to the
/// representative nearest the implementation (modular reduction is the
/// declared meaning of masking).
struct PrecVal {
  Interval iv;
  U128 err = 0;  ///< Q32, always <= kErrTop
  bool absolute = true;

  bool operator==(const PrecVal& o) const {
    return iv == o.iv && err == o.err && absolute == o.absolute;
  }
};

U128 e_clamp(U128 v) { return v < kErrTop ? v : kErrTop; }

PrecVal join_val(const PrecVal& a, const PrecVal& b) {
  PrecVal out;
  out.iv = join(a.iv, b.iv);
  out.err = std::max(a.err, b.err);
  out.absolute = a.absolute && b.absolute;
  return out;
}

struct State {
  std::vector<PrecVal> regs;
  bool operator==(const State& o) const { return regs == o.regs; }
};

State join_state(const State& a, const State& b) {
  State out = a;
  for (std::size_t i = 0; i < out.regs.size(); ++i) {
    out.regs[i] = join_val(out.regs[i], b.regs[i]);
  }
  return out;
}

using FieldState = std::array<PrecVal, p4sim::kFieldCount>;

FieldState join_fields(const FieldState& a, const FieldState& b) {
  FieldState out;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = join_val(a[i], b[i]);
  }
  return out;
}

std::string u128_str(U128 v) {
  if (v == 0) return "0";
  std::string s;
  while (v != 0) {
    s += static_cast<char>('0' + static_cast<unsigned>(v % 10));
    v /= 10;
  }
  std::reverse(s.begin(), s.end());
  return s;
}

/// Integer square root of a U128, rounded down.
U128 isqrt_u128(U128 v) {
  if (v == 0) return 0;
  U128 r = 0;
  // Highest power of four <= v.
  U128 bit = static_cast<U128>(1) << ((bit_length(v) - 1) & ~1u);
  while (bit != 0) {
    if (v >= r + bit) {
      v -= r + bit;
      r = (r >> 1) + bit;
    } else {
      r >>= 1;
    }
    bit >>= 2;
  }
  return r;
}

/// Implemented-value cap: the 64-bit machine word the target holds, even
/// when the ideal-integer interval ran past 2^64.
U128 impl_cap(const Interval& iv) { return std::min(iv.hi, kMax64); }

/// Truncation contribution of `shr` by up to `s` bits: (2^s - 1)/2^s < 1
/// value unit, exact in Q32 for s <= 32.
U128 shr_trunc_term(U128 s) {
  if (s == 0) return 0;
  const unsigned sh = s >= 32 ? 32u : static_cast<unsigned>(s);
  return kErrOne - (kErrOne >> sh);
}

/// Width in bits that provably contains a temp's implemented value: the
/// tighter of its interval bound and its possible-bits mask from the DAG.
unsigned value_width(const Interval& iv, Word bits) {
  return std::min(bit_length(impl_cap(iv)),
                  static_cast<unsigned>(bit_length(static_cast<U128>(bits))));
}

/// Per-program facts computed once: per-instruction possible-bits of the
/// dst temp (from the symbolic DAG) and the validated approx spans.
struct PrecFacts {
  std::vector<Word> bits;  ///< one per instruction; all-ones for stores
  std::vector<ApproxSpan> spans;
  std::vector<int> span_ending_at;  ///< code idx -> span idx, -1 if none
};

PrecFacts build_facts(const Program& p, const p4sim::RegisterFile& rf,
                         DiagnosticEngine* diags) {
  PrecFacts facts;
  {
    sym::Dag dag;
    sym::SymEnv env;
    env.registers = &rf;
    env.dst_bits = &facts.bits;
    (void)sym::sym_execute(p, dag, env);
  }
  facts.span_ending_at.assign(p.code.size(), -1);
  for (const ApproxSpan& span : p.approx_spans) {
    const bool range_ok = span.begin < span.end && span.end <= p.code.size();
    const bool out_ok =
        range_ok && p4sim::op_info(p.code[span.end - 1].op).writes_dst &&
        p.code[span.end - 1].dst == span.out && span.out < p4sim::kTempCount &&
        span.in_a < p4sim::kTempCount && span.in_b < p4sim::kTempCount;
    if (!range_ok || !out_ok || span.rel_den == 0) {
      if (diags != nullptr) {
        diags->report(
            "S4-PREC-004", Severity::kError,
            "approx-span metadata is invalid (range [" +
                std::to_string(span.begin) + ", " + std::to_string(span.end) +
                "), out t" + std::to_string(span.out) +
                "); the span is ignored and its body analyzed literally",
            SourceLoc{p.name, static_cast<int>(span.begin), "approx_span"});
      }
      continue;
    }
    facts.span_ending_at[span.end - 1] = static_cast<int>(facts.spans.size());
    facts.spans.push_back(span);
  }
  return facts;
}

/// Error bound for the declared contract of `span` applied to inputs whose
/// abstract values (captured at span.begin) are `in_a` / `in_b`, with the
/// implemented result interval `out_iv`.  Returns kErrTop when the inputs
/// carry error the contract's Lipschitz terms cannot absorb.
U128 span_error(const ApproxSpan& span, const PrecVal& in_a,
                const PrecVal& in_b, const Interval& out_iv) {
  // Lipschitz terms need real (absolute) input error, not just ring.
  const bool a_ok = in_a.err == 0 || in_a.absolute;
  const bool b_ok = in_b.err == 0 || in_b.absolute;
  if (!a_ok || !b_ok || in_a.err >= kErrTop || in_b.err >= kErrTop) {
    return kErrTop;
  }
  const U128 ea = in_a.err;
  const U128 eb = in_b.err;
  const U128 cap_a = impl_cap(in_a.iv);
  const U128 cap_b = impl_cap(in_b.iv);
  U128 err = sat_mul(span.abs, kErrOne);
  switch (span.fn) {
    case ApproxSpan::Fn::kSqrt: {
      // |approx - sqrt(x)| <= sqrt(x)*rel + abs, plus |sqrt(x) - sqrt(x^)|
      // <= sqrt(|x - x^|).
      const U128 s_max = sat_add(isqrt_u128(cap_a), 1);
      err = sat_add(err, sat_mul(sat_mul(s_max, kErrOne), span.rel_num) /
                             span.rel_den);
      if (ea != 0) {
        err = sat_add(err, sat_add(isqrt_u128(sat_shl(ea, kErrFracBits)), 1));
      }
      break;
    }
    case ApproxSpan::Fn::kSquare: {
      // |approx - x^2| <= x^2*rel, plus |x^2 - x^^2| <= e*(2x + e).
      const U128 sq = sat_mul(cap_a, cap_a);
      err = sat_add(err, sat_shl(sat_mul(sq, span.rel_num) / span.rel_den,
                                 kErrFracBits));
      if (ea != 0) {
        err = sat_add(err, sat_mul(ea, sat_mul(cap_a, 2)));
        err = sat_add(err, sat_mul(ea, ea) >> kErrFracBits);
      }
      break;
    }
    case ApproxSpan::Fn::kMul: {
      // |approx - a*b| <= a*b*rel, plus the exact-product drift
      // ea*b + eb*a + ea*eb.
      const U128 prod = sat_mul(cap_a, cap_b);
      err = sat_add(err, sat_shl(sat_mul(prod, span.rel_num) / span.rel_den,
                                 kErrFracBits));
      err = sat_add(err, sat_mul(ea, cap_b));
      err = sat_add(err, sat_mul(eb, cap_a));
      err = sat_add(err, sat_mul(ea, eb) >> kErrFracBits);
      break;
    }
    case ApproxSpan::Fn::kLog2: {
      // Output units are 2^kLog2FracBits per bit; d/dy 256*log2(y) =
      // 256/(ln2 * y) <= 370/y, bounded with the smallest ideal input.
      if (ea != 0) {
        const U128 e_units = ea >> kErrFracBits;
        if (in_a.iv.lo <= sat_add(e_units, 1)) return kErrTop;
        const U128 denom = in_a.iv.lo - e_units - 1;
        err = sat_add(err, sat_add(sat_mul(ea, 370) / denom, kErrOne));
      }
      break;
    }
    case ApproxSpan::Fn::kTableLookup: {
      // Declared per-entry error vs the implemented output scale; the
      // lookup key must be exact (no Lipschitz contract for a table).
      if (ea != 0 || eb != 0) return kErrTop;
      err = sat_add(err, sat_shl(sat_mul(impl_cap(out_iv), span.rel_num) /
                                     span.rel_den,
                                 kErrFracBits));
      break;
    }
  }
  return e_clamp(err);
}

/// One abstract execution of a program under the error domain.
void transfer(const Program& p, const PrecFacts& facts,
              const std::vector<Interval>& params,
              const p4sim::RegisterFile& rf, const PrecisionOptions& popts,
              State& s, FieldState& fs, std::vector<PrecVal>& temps,
              std::vector<Word>& temp_bits) {
  temps.assign(p4sim::kTempCount, PrecVal{});
  temp_bits.assign(p4sim::kTempCount, 0);
  // Input snapshots for spans whose end we have not reached yet.
  std::vector<std::pair<PrecVal, PrecVal>> span_in(facts.spans.size());
  std::vector<bool> span_in_set(facts.spans.size(), false);

  for (std::size_t i = 0; i < p.code.size(); ++i) {
    for (std::size_t k = 0; k < facts.spans.size(); ++k) {
      if (facts.spans[k].begin == i) {
        span_in[k] = {temps[facts.spans[k].in_a], temps[facts.spans[k].in_b]};
        span_in_set[k] = true;
      }
    }
    const Instruction& ins = p.code[i];
    const PrecVal a = temps[ins.a];
    const PrecVal b = temps[ins.b];
    bool ovf = false;
    bool wrap = false;
    PrecVal r;
    switch (ins.op) {
      case Op::kConst: r.iv = Interval::constant(ins.imm); break;
      case Op::kParam:
        r.iv =
            ins.imm < params.size() ? params[ins.imm] : Interval::constant(0);
        break;
      case Op::kMov: r = a; break;
      case Op::kAdd:
        // Ring translation: wrapping changes nothing mod 2^64.
        r.iv = iv_add(a.iv, b.iv, &ovf);
        r.err = e_clamp(sat_add(a.err, b.err));
        r.absolute = a.absolute && b.absolute && !ovf;
        break;
      case Op::kSub:
        r.iv = iv_sub(a.iv, b.iv, &wrap);
        r.err = e_clamp(sat_add(a.err, b.err));
        r.absolute = a.absolute && b.absolute && !wrap;
        break;
      case Op::kMul:
        r.iv = iv_mul(a.iv, b.iv, &ovf);
        if (a.err == 0 && b.err == 0) {
          r.err = 0;
        } else if (a.absolute && b.absolute) {
          // |a^b^ - ab| <= ea*b + eb*a + ea*eb, impl values capped at 2^64.
          r.err = sat_mul(a.err, impl_cap(b.iv));
          r.err = sat_add(r.err, sat_mul(b.err, impl_cap(a.iv)));
          r.err = sat_add(r.err, sat_mul(a.err, b.err) >> kErrFracBits);
          r.err = e_clamp(r.err);
          r.absolute = !ovf;
        } else {
          r.err = kErrTop;
          r.absolute = false;
        }
        break;
      case Op::kShl: {
        r.iv = iv_shl(a.iv, b.iv, &ovf);
        const Interval sh = iv_shift_amount(b.iv);
        const unsigned s_hi = static_cast<unsigned>(sh.hi);
        // (d + k*2^64)*2^s keeps the multiple, so ring errors scale too.
        r.err = e_clamp(sat_shl(a.err, s_hi));
        r.absolute = a.absolute && !ovf;
        break;
      }
      case Op::kShr: {
        r.iv = iv_shr(a.iv, b.iv);
        const Interval sh = iv_shift_amount(b.iv);
        const unsigned s_lo = static_cast<unsigned>(sh.lo);
        const unsigned s_hi = static_cast<unsigned>(sh.hi);
        // Exact division when the DAG proves the shifted-out bits are 0.
        const Word low_mask =
            s_hi >= 64 ? ~Word{0} : ((Word{1} << s_hi) - 1);
        const bool impl_exact = (temp_bits[ins.a] & low_mask) == 0;
        if (a.err == 0) {
          r.err = impl_exact ? 0 : shr_trunc_term(s_hi);
        } else if (a.absolute) {
          // ideal/2^s vs impl>>s: input error divides (floored: +1 ulp),
          // truncation adds.
          r.err = sat_add(a.err >> s_lo, 1);
          if (!impl_exact) r.err = sat_add(r.err, shr_trunc_term(s_hi));
        } else {
          // A ring-only representative divided by 2^s is meaningless.
          r.err = kErrTop;
        }
        if (popts.unsound_drop_shr_truncation && a.err == 0) {
          r.err = 0;  // deliberately wrong; see PrecisionOptions
        }
        r.err = e_clamp(r.err);
        r.absolute = r.err < kErrTop;
        break;
      }
      // Bitwise ops with one error-free operand are re-anchoring points:
      // the ideal is redefined as the implemented result plus the input
      // deviation wrapped onto the 2^k ring that provably contains the
      // result (the oracle implements exactly this).  Multiples of 2^64
      // vanish under the wrap, so even ring-only input errors come out
      // absolute.  For AND the result fits the narrower operand; for OR
      // and XOR it fits the union of both operands' bit ranges.
      case Op::kAnd: {
        r.iv = iv_and(a.iv, b.iv);
        if (a.err == 0 && b.err == 0) {
          r.err = 0;
        } else if (a.err == 0 || b.err == 0) {
          const PrecVal& x = a.err == 0 ? b : a;
          const unsigned k =
              std::min(value_width(a.iv, temp_bits[ins.a]),
                       value_width(b.iv, temp_bits[ins.b]));
          r.err = std::min(x.err, err_ring_half(k));
          r.absolute = r.err < kErrTop;
        } else {
          r.err = kErrTop;
          r.absolute = false;
        }
        break;
      }
      case Op::kOr:
      case Op::kXor: {
        r.iv = ins.op == Op::kOr ? iv_or(a.iv, b.iv) : iv_xor(a.iv, b.iv);
        if (a.err == 0 && b.err == 0) {
          r.err = 0;
        } else if (a.err == 0 || b.err == 0) {
          const PrecVal& x = a.err == 0 ? b : a;
          const unsigned k =
              std::max(value_width(a.iv, temp_bits[ins.a]),
                       value_width(b.iv, temp_bits[ins.b]));
          r.err = std::min(x.err, err_ring_half(k));
          r.absolute = r.err < kErrTop;
        } else {
          r.err = kErrTop;
          r.absolute = false;
        }
        break;
      }
      case Op::kNot:
        // ~x = 2^64-1-x in both worlds: error passes through.
        r.iv = iv_not(a.iv);
        r.err = a.err;
        r.absolute = a.absolute;
        break;
      // Mixed semantics: the ideal follows the implementation's control
      // decisions, so comparison outputs are exact by definition.
      case Op::kEq: r.iv = iv_eq(a.iv, b.iv); break;
      case Op::kNe: {
        const Interval e = iv_eq(a.iv, b.iv);
        r.iv = iv_bool(e.hi == 0, e.lo == 1);
        break;
      }
      case Op::kLt: r.iv = iv_lt(a.iv, b.iv); break;
      case Op::kGt: r.iv = iv_lt(b.iv, a.iv); break;
      case Op::kLe: r.iv = iv_le(a.iv, b.iv); break;
      case Op::kGe: r.iv = iv_le(b.iv, a.iv); break;
      case Op::kSelect: {
        const PrecVal& c = temps[ins.c];
        r.iv = iv_select(a.iv, b.iv, c.iv);
        if (a.iv.lo >= 1) {
          r.err = b.err;
          r.absolute = b.absolute;
        } else if (a.iv.hi == 0) {
          r.err = c.err;
          r.absolute = c.absolute;
        } else {
          r.err = std::max(b.err, c.err);
          r.absolute = b.absolute && c.absolute;
        }
        break;
      }
      case Op::kLoadField:
        r = fs[static_cast<std::size_t>(ins.field)];
        break;
      case Op::kStoreField: {
        const unsigned w = field_bits(ins.field);
        PrecVal stored = a;
        stored.err = std::min(stored.err, err_ring_half(w));
        stored.absolute = true;  // width-masked store re-anchors the ideal
        fs[static_cast<std::size_t>(ins.field)] = stored;
        continue;
      }
      case Op::kLoadReg:
        if (ins.reg < s.regs.size()) {
          r = s.regs[ins.reg];
        } else {
          r.iv = Interval::top64();
          r.err = kErrTop;
          r.absolute = false;
        }
        break;
      case Op::kStoreReg: {
        if (ins.reg >= s.regs.size()) continue;
        const unsigned w = rf.info(ins.reg).width_bits;
        PrecVal stored = b;
        stored.iv = b.iv;
        stored.err = std::min(stored.err, err_ring_half(w));
        stored.absolute = true;  // width-masked store re-anchors the ideal
        s.regs[ins.reg] = join_val(s.regs[ins.reg], stored);
        continue;
      }
      // Hashing selects indices; the ideal uses the same hash of the same
      // implemented key (mixed semantics), so the result is exact.
      case Op::kHash1:
      case Op::kHash2: r.iv = Interval::top64(); break;
      case Op::kDigest: continue;
    }
    temps[ins.dst] = r;
    if (i < facts.bits.size()) temp_bits[ins.dst] = facts.bits[i];
    const int span_idx = facts.span_ending_at[i];
    if (span_idx >= 0 && span_in_set[static_cast<std::size_t>(span_idx)]) {
      // The span's declared contract replaces whatever the literal shift
      // body would prove: the ORACLE's ideal applies the real function at
      // this point, so the bound must be against that ideal.
      const ApproxSpan& span = facts.spans[static_cast<std::size_t>(span_idx)];
      const auto& [in_a, in_b] = span_in[static_cast<std::size_t>(span_idx)];
      PrecVal& out = temps[span.out];
      out.err = span_error(span, in_a, in_b, out.iv);
      out.absolute = out.err < kErrTop;
    }
  }
}

struct Stepper {
  const AbstractPipeline* pipe = nullptr;
  const AnalysisOptions* options = nullptr;
  const PrecisionOptions* popts = nullptr;
  const std::map<const Program*, PrecFacts>* facts = nullptr;
  std::vector<PrecVal> temps;
  std::vector<Word> temp_bits;

  FieldState initial_fields() const {
    FieldState fs;
    for (std::size_t i = 0; i < fs.size(); ++i) {
      const auto f = static_cast<FieldRef>(i);
      fs[i].iv = Interval::width(field_bits(f));
      if (f == FieldRef::kMetaIngressTs) {
        fs[i].iv = Interval{0, options->timestamp_bound_ns};
      }
    }
    for (const auto& [field, hi] : options->field_bounds) {
      fs[static_cast<std::size_t>(field)].iv = Interval{0, hi};
    }
    return fs;
  }

  State step(const State& s, FieldState* final_fields = nullptr) {
    State cur = s;
    FieldState fs = initial_fields();
    for (const auto& stage : pipe->stages) {
      State merged = cur;
      FieldState fmerged = fs;
      for (const auto& alt : stage) {
        State t = cur;
        FieldState ft = fs;
        transfer(*alt.program, facts->at(alt.program), alt.params,
                 *pipe->registers, *popts, t, ft, temps, temp_bits);
        merged = join_state(merged, t);
        fmerged = join_fields(fmerged, ft);
      }
      cur = merged;
      fs = fmerged;
    }
    if (final_fields != nullptr) *final_fields = fs;
    return join_state(s, cur);
  }
};

}  // namespace

double ErrorBound::relative() const noexcept {
  if (err_q32 == 0) return 0.0;
  const double err = static_cast<double>(err_q32) /
                     static_cast<double>(kErrOne);
  const double scale =
      value_hi == 0 ? 1.0 : static_cast<double>(value_hi);
  return err / scale;
}

std::string err_q32_str(U128 err_q32) {
  const U128 ip = err_q32 >> kErrFracBits;
  const unsigned frac = static_cast<unsigned>(
      ((err_q32 & (kErrOne - 1)) * 100) >> kErrFracBits);
  std::string s = u128_str(ip) + ".";
  s += static_cast<char>('0' + frac / 10);
  s += static_cast<char>('0' + frac % 10);
  return s;
}

std::string err_q32_raw_str(U128 err_q32) { return u128_str(err_q32); }

PrecisionResult run_precision_pass(const AbstractPipeline& pipeline,
                                   const AnalysisOptions& options,
                                   const PrecisionOptions& popts) {
  PrecisionResult result;
  const std::size_t arrays = pipeline.registers->array_count();

  // Per-program facts: possible-bits + validated spans (S4-PREC-004).
  std::map<const Program*, PrecFacts> facts;
  std::bitset<p4sim::kFieldCount> written_fields;
  for (const auto& stage : pipeline.stages) {
    for (const auto& alt : stage) {
      if (facts.count(alt.program) == 0) {
        facts.emplace(alt.program,
                      build_facts(*alt.program, *pipeline.registers,
                                  &result.diags));
      }
      for (const Instruction& ins : alt.program->code) {
        if (ins.op == Op::kStoreField) {
          written_fields.set(static_cast<std::size_t>(ins.field));
        }
      }
    }
  }

  State s;
  s.regs.assign(arrays, PrecVal{});
  Stepper stepper{&pipeline, &options, &popts, &facts, {}, {}};

  const std::uint64_t target =
      std::max<std::uint64_t>(1, options.max_observations);
  // Two accelerated histories per array: value high bound and error bound.
  std::vector<AccelHistory> hist_hi(arrays);
  std::vector<AccelHistory> hist_err(arrays);
  for (auto& h : hist_hi) h.fill(0);
  for (auto& h : hist_err) h.fill(0);

  std::uint64_t iter = 0;   // observations covered (jumps count in full)
  std::uint64_t steps = 0;  // abstract packets actually executed
  bool fixpoint = false;
  bool extrapolated = false;
  std::vector<std::size_t> unproven;

  const auto exact_steps = [&](std::uint64_t until) {
    while (iter < until) {
      State next = stepper.step(s);
      ++iter;
      ++steps;
      for (std::size_t r = 0; r < arrays; ++r) {
        accel_push(hist_hi[r], next.regs[r].iv.hi);
        accel_push(hist_err[r], next.regs[r].err);
      }
      if (next == s) {
        fixpoint = true;
        return;
      }
      s = std::move(next);
    }
  };

  exact_steps(std::min<std::uint64_t>(target, options.warmup_iterations));

  if (!fixpoint && iter < target) {
    bool all_poly = true;
    std::vector<std::array<U128, 4>> fits(arrays, {0, 0, 0, 0});
    for (std::size_t r = 0; r < arrays && all_poly; ++r) {
      auto& f = fits[r];
      if (hist_hi[r][kAccelWindow - 1] != hist_hi[r][0]) {
        all_poly = poly_fit(hist_hi[r], &f[0], &f[1]);
      }
      if (all_poly && hist_err[r][kAccelWindow - 1] != hist_err[r][0]) {
        all_poly = poly_fit(hist_err[r], &f[2], &f[3]);
      }
    }
    if (all_poly && iter >= kAccelWindow) {
      const U128 remaining = target - iter;
      for (std::size_t r = 0; r < arrays; ++r) {
        s.regs[r].iv.hi =
            poly_jump(s.regs[r].iv.hi, fits[r][0], fits[r][1], remaining);
        s.regs[r].err = e_clamp(
            poly_jump(s.regs[r].err, fits[r][2], fits[r][3], remaining));
      }
      iter = target;
      extrapolated = true;
      for (int settle = 0; settle < 4 && !fixpoint; ++settle) {
        State next = stepper.step(s);
        ++steps;
        if (next == s) fixpoint = true;
        s = std::move(next);
      }
    } else {
      exact_steps(
          std::min<std::uint64_t>(target, options.max_exact_iterations));
      if (!fixpoint && iter < target) {
        State probe = stepper.step(s);
        ++steps;
        for (std::size_t r = 0; r < arrays; ++r) {
          if (!(probe.regs[r] == s.regs[r])) {
            unproven.push_back(r);
            const unsigned w =
                pipeline.registers->info(static_cast<p4sim::RegisterId>(r))
                    .width_bits;
            probe.regs[r].iv = join(probe.regs[r].iv, Interval::width(w));
            probe.regs[r].err = err_ring_half(w);
          }
        }
        s = std::move(probe);
        iter = target;
        for (int settle = 0; settle < 2; ++settle) {
          s = stepper.step(s);
          ++steps;
        }
      }
    }
  }

  // Final abstract packet: captures end-of-pipeline field state.
  FieldState fields;
  s = stepper.step(s, &fields);
  ++steps;

  const std::string scope =
      fixpoint ? "for any packet count"
               : "within " + std::to_string(target) + " observations";

  std::set<std::size_t> assumed(unproven.begin(), unproven.end());
  for (std::size_t r = 0; r < arrays; ++r) {
    const auto& info =
        pipeline.registers->info(static_cast<p4sim::RegisterId>(r));
    ErrorBound eb;
    eb.name = info.name;
    eb.width_bits = info.width_bits;
    eb.value_hi = clamp_u64(s.regs[r].iv.hi);
    eb.err_q32 = s.regs[r].err;
    eb.vacuous = eb.err_q32 >= err_ring_half(info.width_bits);
    eb.assumed = assumed.count(r) != 0;
    if (eb.assumed) {
      result.diags.report(
          "S4-PREC-002", Severity::kWarning,
          "register '" + eb.name + "' error growth did not stabilize and is "
              "not polynomial; its error bound at " + std::to_string(target) +
              " observations is assumed at the vacuous half-ring, not proven",
          SourceLoc{pipeline.name, -1, eb.name});
    }
    if (eb.vacuous) {
      result.diags.report(
          "S4-PREC-001", Severity::kError,
          "register '" + eb.name + "' carries a vacuous error bound (half "
              "the " + std::to_string(info.width_bits) + "-bit ring): the "
              "analysis proves nothing about its accuracy " + scope,
          SourceLoc{pipeline.name, -1, eb.name});
    } else if (eb.err_q32 != 0) {
      result.diags.report(
          "S4-PREC-003", Severity::kNote,
          "register '" + eb.name + "' proven max |error| " +
              err_q32_str(eb.err_q32) + " vs implemented bound " +
              std::to_string(eb.value_hi) + " " + scope,
          SourceLoc{pipeline.name, -1, eb.name});
    }
    result.register_bounds.push_back(std::move(eb));
  }

  for (std::size_t f = 0; f < p4sim::kFieldCount; ++f) {
    if (!written_fields.test(f)) continue;
    const auto field = static_cast<FieldRef>(f);
    const unsigned w = field_bits(field);
    ErrorBound eb;
    eb.name = p4sim::field_name(field);
    eb.width_bits = w;
    eb.value_hi = clamp_u64(fields[f].iv.hi);
    eb.err_q32 = fields[f].err;
    eb.vacuous = eb.err_q32 >= err_ring_half(w);
    if (eb.vacuous) {
      result.diags.report(
          "S4-PREC-001", Severity::kError,
          "field '" + eb.name + "' carries a vacuous error bound (half the " +
              std::to_string(w) + "-bit ring): the analysis proves nothing "
              "about its accuracy " + scope,
          SourceLoc{pipeline.name, -1, eb.name});
    } else if (eb.err_q32 != 0) {
      result.diags.report(
          "S4-PREC-003", Severity::kNote,
          "field '" + eb.name + "' proven max |error| " +
              err_q32_str(eb.err_q32) + " vs implemented bound " +
              std::to_string(eb.value_hi) + " " + scope,
          SourceLoc{pipeline.name, -1, eb.name});
    }
    result.field_bounds.push_back(std::move(eb));
  }

  result.iterations = steps;
  result.fixpoint = fixpoint;
  result.extrapolated = extrapolated;
  result.diags.sort();
  return result;
}

PrecisionResult analyze_precision(const p4sim::P4Switch& sw,
                                  const AnalysisOptions& options,
                                  const PrecisionOptions& popts) {
  const PipelineModel model = build_pipeline_model(sw);
  return run_precision_pass(model.pipe, options, popts);
}

sketch::SketchSizing report_sketch_sizing(double eps, double delta,
                                          std::uint64_t observations,
                                          const std::string& app,
                                          DiagnosticEngine& diags) {
  const sketch::SketchSizing s =
      sketch::suggest_sizing(eps, delta, observations);
  if (!s.feasible) {
    diags.report("S4-PREC-005", Severity::kError,
                 "no sketch geometry meets eps=" + std::to_string(eps) +
                     " delta=" + std::to_string(delta) + ": " + s.note,
                 SourceLoc{app, -1, "sketch_sizing"});
    return s;
  }
  diags.report(
      "S4-PREC-006", Severity::kNote,
      "for eps=" + std::to_string(eps) + " delta=" + std::to_string(delta) +
          " over " + std::to_string(observations) +
          " observations: count-min " + std::to_string(s.cm_depth) + "x" +
          std::to_string(s.cm_width) + " (" +
          std::to_string(s.cm_memory_bytes) + " B, excess <= " +
          std::to_string(s.cm_max_excess) + "), count-sketch " +
          std::to_string(s.cs_depth) + "x" + std::to_string(s.cs_width) +
          " (" + std::to_string(s.cs_memory_bytes) + " B)",
      SourceLoc{app, -1, "sketch_sizing"});
  return s;
}

}  // namespace analysis
