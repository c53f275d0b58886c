#include "analysis/precision.hpp"

#include <algorithm>
#include <array>
#include <map>

#include "analysis/fixpoint.hpp"
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

PrecVal join(const PrecVal& a, const PrecVal& b) {
  PrecVal out;
  out.iv = join(a.iv, b.iv);
  out.err = std::max(a.err, b.err);
  out.absolute = a.absolute && b.absolute;
  return out;
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

/// The error domain: the engine tracks and jumps each register's value
/// high bound and its error bound (clamped to the half-ring), and widening
/// sets a register's error to the vacuous half of its ring.
struct PrecisionDomain {
  using Value = PrecVal;
  static constexpr std::size_t kTracked = 2;

  static std::array<U128, kTracked> tracked(const PrecVal& v) {
    return {v.iv.hi, v.err};
  }
  static void jump(PrecVal& v, const std::array<PolyFit, kTracked>& fit,
                   U128 steps) {
    v.iv.hi = poly_jump(v.iv.hi, fit[0], steps);
    v.err = e_clamp(poly_jump(v.err, fit[1], steps));
  }
  static void widen(PrecVal& v, unsigned width_bits) {
    v.iv = join(v.iv, Interval::width(width_bits));
    v.err = err_ring_half(width_bits);
  }

  /// One abstract execution of a program under the error domain.
  void transfer(const StageAlternative& alt, std::vector<PrecVal>& regs,
                FieldValues<PrecVal>& fs) {
    const Program& p = *alt.program;
    const PrecFacts& facts = facts_by_program.at(&p);
    const std::vector<Interval>& params = alt.params;
    const p4sim::RegisterFile& rf = *registers;
    temps.assign(p4sim::kTempCount, PrecVal{});
    temp_bits.assign(p4sim::kTempCount, 0);
    // Input snapshots for spans whose end we have not reached yet.
    std::vector<std::pair<PrecVal, PrecVal>> span_in(facts.spans.size());
    std::vector<bool> span_in_set(facts.spans.size(), false);

    for (std::size_t i = 0; i < p.code.size(); ++i) {
      for (std::size_t k = 0; k < facts.spans.size(); ++k) {
        if (facts.spans[k].begin == i) {
          span_in[k] = {temps[facts.spans[k].in_a],
                        temps[facts.spans[k].in_b]};
          span_in_set[k] = true;
        }
      }
      const Instruction& ins = p.code[i];
      const PrecVal a = temps[ins.a];
      const PrecVal b = temps[ins.b];
      bool ovf = false;
      bool wrap = false;
      PrecVal r;
      // The ALU ops take their interval from iv_alu; the switch adds their
      // error and models every other op.
      r.iv = iv_alu(ins.op, a.iv, b.iv, temps[ins.c].iv, &ovf, &wrap);
      switch (ins.op) {
        case Op::kConst: r.iv = Interval::constant(ins.imm); break;
        case Op::kParam:
          r.iv =
              ins.imm < params.size() ? params[ins.imm] : Interval::constant(0);
          break;
        case Op::kMov: r = a; break;
        case Op::kAdd:
        case Op::kSub:
          // Ring translation: wrapping changes nothing mod 2^64.
          r.err = e_clamp(sat_add(a.err, b.err));
          r.absolute = a.absolute && b.absolute && !ovf && !wrap;
          break;
        case Op::kMul:
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
          const Interval sh = iv_shift_amount(b.iv);
          const unsigned s_hi = static_cast<unsigned>(sh.hi);
          // (d + k*2^64)*2^s keeps the multiple, so ring errors scale too.
          r.err = e_clamp(sat_shl(a.err, s_hi));
          r.absolute = a.absolute && !ovf;
          break;
        }
        case Op::kShr: {
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
          if (popts->unsound_drop_shr_truncation && a.err == 0) {
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
          r.err = a.err;
          r.absolute = a.absolute;
          break;
        // Mixed semantics: the ideal follows the implementation's control
        // decisions, so comparison outputs are exact by definition.
        case Op::kEq:
        case Op::kNe:
        case Op::kLt:
        case Op::kGt:
        case Op::kLe:
        case Op::kGe: break;
        case Op::kSelect: {
          const PrecVal& c = temps[ins.c];
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
          if (ins.reg < regs.size()) {
            r = regs[ins.reg];
          } else {
            r.iv = Interval::top64();
            r.err = kErrTop;
            r.absolute = false;
          }
          break;
        case Op::kStoreReg: {
          if (ins.reg >= regs.size()) continue;
          const unsigned w = rf.info(ins.reg).width_bits;
          PrecVal stored = b;
          stored.iv = b.iv;
          stored.err = std::min(stored.err, err_ring_half(w));
          stored.absolute = true;  // width-masked store re-anchors the ideal
          regs[ins.reg] = join(regs[ins.reg], stored);
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
        const auto k = static_cast<std::size_t>(span_idx);
        const ApproxSpan& span = facts.spans[k];
        const auto& [in_a, in_b] = span_in[k];
        PrecVal& out = temps[span.out];
        out.err = span_error(span, in_a, in_b, out.iv);
        out.absolute = out.err < kErrTop;
      }
    }
  }

  const p4sim::RegisterFile* registers = nullptr;
  const PrecisionOptions* popts = nullptr;
  std::map<const Program*, PrecFacts> facts_by_program;
  std::vector<PrecVal> temps;
  std::vector<Word> temp_bits;
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

  // Per-program facts: possible-bits + validated spans (S4-PREC-004).
  PrecisionDomain domain;
  domain.registers = pipeline.registers;
  domain.popts = &popts;
  std::bitset<p4sim::kFieldCount> written_fields;
  for (const auto& stage : pipeline.stages) {
    for (const auto& alt : stage) {
      if (domain.facts_by_program.count(alt.program) == 0) {
        domain.facts_by_program.emplace(
            alt.program,
            build_facts(*alt.program, *pipeline.registers, &result.diags));
      }
      for (const Instruction& ins : alt.program->code) {
        if (ins.op == Op::kStoreField) {
          written_fields.set(static_cast<std::size_t>(ins.field));
        }
      }
    }
  }

  FixpointEngine<PrecisionDomain> engine(pipeline, options, domain);
  const FixpointRun<PrecVal> run = engine.run();

  // Final abstract packet: captures end-of-pipeline field state.
  FieldValues<PrecVal> fields;
  const std::vector<PrecVal> regs = engine.step(run.regs, &fields);

  const std::string scope =
      run.fixpoint ? "for any packet count"
                   : "within " + std::to_string(run.observations) +
                         " observations";
  // S4-PREC-001 for a vacuous bound, S4-PREC-003 for a finite non-zero one.
  const auto report_accuracy = [&](const char* kind, const ErrorBound& eb) {
    const std::string what = std::string(kind) + " '" + eb.name + "'";
    if (eb.vacuous) {
      result.diags.report(
          "S4-PREC-001", Severity::kError,
          what + " carries a vacuous error bound (half the " +
              std::to_string(eb.width_bits) + "-bit ring): the analysis "
              "proves nothing about its accuracy " + scope,
          SourceLoc{pipeline.name, -1, eb.name});
    } else if (eb.err_q32 != 0) {
      result.diags.report(
          "S4-PREC-003", Severity::kNote,
          what + " proven max |error| " + err_q32_str(eb.err_q32) +
              " vs implemented bound " + std::to_string(eb.value_hi) + " " +
              scope,
          SourceLoc{pipeline.name, -1, eb.name});
    }
  };

  for (std::size_t r = 0; r < regs.size(); ++r) {
    const auto& info =
        pipeline.registers->info(static_cast<p4sim::RegisterId>(r));
    ErrorBound eb;
    eb.name = info.name;
    eb.width_bits = info.width_bits;
    eb.value_hi = clamp_u64(regs[r].iv.hi);
    eb.err_q32 = regs[r].err;
    eb.vacuous = eb.err_q32 >= err_ring_half(info.width_bits);
    eb.assumed = run.widened[r];
    if (eb.assumed) {
      result.diags.report(
          "S4-PREC-002", Severity::kWarning,
          "register '" + eb.name + "' error growth did not stabilize and is "
              "not polynomial; its error bound at " +
              std::to_string(run.observations) +
              " observations is assumed at the vacuous half-ring, not proven",
          SourceLoc{pipeline.name, -1, eb.name});
    }
    report_accuracy("register", eb);
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
    report_accuracy("field", eb);
    result.field_bounds.push_back(std::move(eb));
  }

  result.iterations = run.steps + 1;  // the final step included
  result.fixpoint = run.fixpoint;
  result.extrapolated = run.extrapolated;
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
