#include "analysis/overflow.hpp"

#include <algorithm>
#include <array>
#include <set>
#include <tuple>

#include "analysis/acceleration.hpp"
#include "p4sim/disasm.hpp"

namespace analysis {

namespace {

using p4sim::FieldRef;
using p4sim::Instruction;
using p4sim::Op;
using p4sim::Program;

constexpr std::size_t kWindow = kAccelWindow;  ///< samples per register

/// Abstract register state: one interval of IDEAL (unwrapped, 128-bit)
/// accumulated values per register array, index-insensitive.
struct State {
  std::vector<Interval> regs;
  bool operator==(const State& o) const { return regs == o.regs; }
};

State join_state(const State& a, const State& b) {
  State out = a;
  for (std::size_t i = 0; i < out.regs.size(); ++i) {
    out.regs[i] = join(out.regs[i], b.regs[i]);
  }
  return out;
}

using FieldState = std::array<Interval, p4sim::kFieldCount>;

FieldState join_fields(const FieldState& a, const FieldState& b) {
  FieldState out;
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = join(a[i], b[i]);
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

std::string bound_str(U128 v) {
  std::string s = u128_str(v);
  if (v > kMax64) s += " (~2^" + std::to_string(bit_length(v) - 1) + ")";
  return s;
}

std::string range_str(const Interval& iv) {
  return "[" + u128_str(iv.lo) + ", " + bound_str(iv.hi) + "]";
}

/// Deduplicating diagnostic emitter for the final reporting pass: the same
/// instruction may be visited once per stage alternative.
struct Emitter {
  DiagnosticEngine* engine = nullptr;  ///< null during iteration
  std::set<std::tuple<std::string, int, std::string, std::string>> seen;
  std::string scope;  ///< "after <=N observations" / "for any packet count"

  void emit(const char* rule, Severity severity, const std::string& program,
            int instruction, const std::string& object, std::string message) {
    if (engine == nullptr) return;
    if (!seen.emplace(program, instruction, rule, object).second) return;
    engine->report(rule, severity, std::move(message),
                   SourceLoc{program, instruction, object});
  }
};

unsigned reg_width(const p4sim::RegisterFile& rf, p4sim::RegisterId id) {
  return rf.info(id).width_bits;
}

/// One abstract execution of a program: propagates intervals through temps,
/// widens register/field state, and (when em.engine is set) reports
/// overflow findings.
void transfer(const Program& p, const std::vector<Interval>& params,
              const p4sim::RegisterFile& rf, State& s, FieldState& fs,
              std::vector<Interval>& temps, Emitter& em) {
  temps.assign(p4sim::kTempCount, Interval{});
  for (std::size_t i = 0; i < p.code.size(); ++i) {
    const Instruction& ins = p.code[i];
    const int loc = static_cast<int>(i);
    const Interval a = temps[ins.a];
    const Interval b = temps[ins.b];
    bool ovf = false;
    bool wrap = false;
    Interval r{};
    switch (ins.op) {
      case Op::kConst: r = Interval::constant(ins.imm); break;
      case Op::kParam:
        r = ins.imm < params.size() ? params[ins.imm] : Interval::constant(0);
        break;
      case Op::kMov: r = a; break;
      case Op::kAdd: r = iv_add(a, b, &ovf); break;
      case Op::kSub: r = iv_sub(a, b, &wrap); break;
      case Op::kMul: r = iv_mul(a, b, &ovf); break;
      case Op::kShl: r = iv_shl(a, b, &ovf); break;
      case Op::kShr: r = iv_shr(a, b); break;
      case Op::kAnd: r = iv_and(a, b); break;
      case Op::kOr: r = iv_or(a, b); break;
      case Op::kXor: r = iv_xor(a, b); break;
      case Op::kNot: r = iv_not(a); break;
      case Op::kEq: r = iv_eq(a, b); break;
      case Op::kNe: {
        const Interval e = iv_eq(a, b);
        r = iv_bool(e.hi == 0, e.lo == 1);
        break;
      }
      case Op::kLt: r = iv_lt(a, b); break;
      case Op::kGt: r = iv_lt(b, a); break;
      case Op::kLe: r = iv_le(a, b); break;
      case Op::kGe: r = iv_le(b, a); break;
      case Op::kSelect: r = iv_select(a, b, temps[ins.c]); break;
      case Op::kLoadField:
        r = fs[static_cast<std::size_t>(ins.field)];
        break;
      case Op::kStoreField: {
        const unsigned w = field_bits(ins.field);
        if (!a.fits(w)) {
          em.emit("S4-OVF-002", Severity::kError, p.name, loc,
                  p4sim::field_name(ins.field),
                  std::string("value range ") + range_str(a) +
                      " cannot fit field '" + p4sim::field_name(ins.field) +
                      "' (" + std::to_string(w) + " bits) " + em.scope);
        }
        fs[static_cast<std::size_t>(ins.field)] = a;
        continue;
      }
      case Op::kLoadReg:
        r = ins.reg < s.regs.size() ? s.regs[ins.reg] : Interval::top64();
        break;
      case Op::kStoreReg: {
        if (ins.reg >= s.regs.size()) continue;
        const unsigned w = reg_width(rf, ins.reg);
        if (!b.fits(w)) {
          em.emit("S4-OVF-001", Severity::kError, p.name, loc,
                  rf.info(ins.reg).name,
                  std::string("value range ") + range_str(b) +
                      " cannot fit register '" + rf.info(ins.reg).name +
                      "' (" + std::to_string(w) + " bits) " + em.scope);
        }
        s.regs[ins.reg] = join(s.regs[ins.reg], b);
        continue;
      }
      case Op::kHash1:
      case Op::kHash2: r = Interval::top64(); break;
      case Op::kDigest: continue;
    }
    if (ovf) {
      const char* const op_name = p4sim::op_info(ins.op).name;
      em.emit("S4-OVF-003", Severity::kError, p.name, loc, op_name,
              std::string(op_name) + " of " + range_str(a) + " and " +
                  range_str(b) + " reaches " + bound_str(r.hi) +
                  " > 2^64-1: the 64-bit word wraps " + em.scope);
    }
    if (wrap) {
      em.emit("S4-OVF-004", Severity::kNote, p.name, loc,
              p4sim::op_info(ins.op).name,
              std::string("subtraction ") + range_str(a) + " - " +
                  range_str(b) + " may wrap below zero " + em.scope);
    }
    temps[ins.dst] = r;
  }
}

struct Stepper {
  const AbstractPipeline* pipe = nullptr;
  const AnalysisOptions* options = nullptr;
  std::vector<Interval> temps;

  FieldState initial_fields() const {
    FieldState fs;
    for (std::size_t i = 0; i < fs.size(); ++i) {
      const auto f = static_cast<FieldRef>(i);
      fs[i] = Interval::width(field_bits(f));
      if (f == FieldRef::kMetaIngressTs) {
        fs[i] = Interval{0, options->timestamp_bound_ns};
      }
    }
    for (const auto& [field, hi] : options->field_bounds) {
      fs[static_cast<std::size_t>(field)] = Interval{0, hi};
    }
    return fs;
  }

  /// One abstract packet: every stage applies one of its alternatives or is
  /// skipped; the result joins with the incoming state (monotone).
  State step(const State& s, Emitter& em) {
    State cur = s;
    FieldState fs = initial_fields();
    for (const auto& stage : pipe->stages) {
      State merged = cur;
      FieldState fmerged = fs;
      for (const auto& alt : stage) {
        State t = cur;
        FieldState ft = fs;
        transfer(*alt.program, alt.params, *pipe->registers, t, ft, temps,
                 em);
        merged = join_state(merged, t);
        fmerged = join_fields(fmerged, ft);
      }
      cur = merged;
      fs = fmerged;
    }
    return join_state(s, cur);
  }
};

// poly_fit / poly_jump live in analysis/acceleration.hpp, shared with the
// precision pass.

}  // namespace

unsigned field_bits(FieldRef f) noexcept {
  switch (f) {
    case FieldRef::kEthType: return 16;
    case FieldRef::kIpv4Src:
    case FieldRef::kIpv4Dst: return 32;
    case FieldRef::kIpv4Proto:
    case FieldRef::kIpv4Ttl: return 8;
    case FieldRef::kTcpSrcPort:
    case FieldRef::kTcpDstPort: return 16;
    case FieldRef::kTcpFlags: return 8;
    case FieldRef::kUdpSrcPort:
    case FieldRef::kUdpDstPort: return 16;
    case FieldRef::kIpv4Valid:
    case FieldRef::kTcpValid:
    case FieldRef::kUdpValid:
    case FieldRef::kEchoValid: return 1;
    case FieldRef::kEchoValue:
    case FieldRef::kEchoN:
    case FieldRef::kEchoXsum:
    case FieldRef::kEchoXsumsq:
    case FieldRef::kEchoVar:
    case FieldRef::kEchoSd: return 64;
    case FieldRef::kMetaIngressPort: return 16;
    case FieldRef::kMetaIngressTs: return 64;
    case FieldRef::kMetaPacketLength: return 16;
    case FieldRef::kMetaEgressSpec: return 32;
  }
  return 64;
}

void run_overflow_pass(const AbstractPipeline& pipeline,
                       const AnalysisOptions& options,
                       AnalysisResult& result) {
  const std::size_t arrays = pipeline.registers->array_count();
  State s;
  s.regs.assign(arrays, Interval{});

  Stepper stepper{&pipeline, &options, {}};
  Emitter silent;  // no engine: iteration phase stays quiet

  const std::uint64_t target = std::max<std::uint64_t>(
      1, options.max_observations);
  std::vector<std::array<U128, kWindow>> hist(arrays);
  for (auto& h : hist) h.fill(0);

  std::uint64_t iter = 0;
  bool fixpoint = false;
  bool extrapolated = false;
  std::vector<std::string> unproven;

  const auto exact_steps = [&](std::uint64_t until) {
    while (iter < until) {
      State next = stepper.step(s, silent);
      ++iter;
      for (std::size_t r = 0; r < arrays; ++r) {
        auto& h = hist[r];
        std::rotate(h.begin(), h.begin() + 1, h.end());
        h[kWindow - 1] = next.regs[r].hi;
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
    // Try polynomial acceleration over the growth window.
    bool all_poly = true;
    std::vector<std::pair<U128, U128>> fits(arrays, {0, 0});
    for (std::size_t r = 0; r < arrays && all_poly; ++r) {
      if (hist[r][kWindow - 1] == hist[r][0]) continue;  // stable
      all_poly = poly_fit(hist[r], &fits[r].first, &fits[r].second);
    }
    if (all_poly && iter >= kWindow) {
      const U128 remaining = target - iter;
      for (std::size_t r = 0; r < arrays; ++r) {
        s.regs[r].hi =
            poly_jump(s.regs[r].hi, fits[r].first, fits[r].second, remaining);
      }
      iter = target;
      extrapolated = true;
      // Settle: propagate the jumped accumulators into derived registers.
      for (int settle = 0; settle < 4 && !fixpoint; ++settle) {
        State next = stepper.step(s, silent);
        if (next == s) fixpoint = true;
        s = std::move(next);
      }
    } else {
      // Irregular growth: keep iterating exactly, then admit the gap.
      exact_steps(std::min<std::uint64_t>(target,
                                          options.max_exact_iterations));
      if (!fixpoint && iter < target) {
        State probe = stepper.step(s, silent);
        for (std::size_t r = 0; r < arrays; ++r) {
          if (!(probe.regs[r] == s.regs[r])) {
            unproven.push_back(pipeline.registers->info(
                static_cast<p4sim::RegisterId>(r)).name);
            const unsigned w =
                reg_width(*pipeline.registers,
                          static_cast<p4sim::RegisterId>(r));
            probe.regs[r] = join(probe.regs[r], Interval::width(w));
          }
        }
        s = std::move(probe);
        iter = target;
        for (int settle = 0; settle < 2; ++settle) {
          s = stepper.step(s, silent);
        }
      }
    }
  }

  // Reporting pass: re-run every alternative from the final state so each
  // witness range reflects the configured observation count.
  Emitter em;
  em.engine = &result.diags;
  em.scope = fixpoint ? "(holds for any packet count)"
                      : "within " + std::to_string(target) + " observations";
  State report_state = s;
  (void)stepper.step(report_state, em);

  for (const auto& name : unproven) {
    result.diags.report(
        "S4-OVF-005", Severity::kWarning,
        "register '" + name + "' growth did not stabilize within " +
            std::to_string(iter) + " exact iterations and is not "
            "polynomial; its bound at " + std::to_string(target) +
            " observations is assumed, not proven",
        SourceLoc{pipeline.name, -1, name});
  }

  result.iterations = iter;
  result.fixpoint = fixpoint;
  result.extrapolated = extrapolated;
  for (std::size_t r = 0; r < arrays; ++r) {
    const auto& info = pipeline.registers->info(
        static_cast<p4sim::RegisterId>(r));
    RegisterBound rb;
    rb.name = info.name;
    rb.width_bits = info.width_bits;
    rb.lo = clamp_u64(s.regs[r].lo);
    rb.hi = clamp_u64(s.regs[r].hi);
    rb.exceeds_width = !s.regs[r].fits(info.width_bits);
    result.register_bounds.push_back(std::move(rb));
  }
}

}  // namespace analysis
