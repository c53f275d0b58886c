#include "analysis/overflow.hpp"

#include <array>
#include <set>
#include <tuple>

#include "analysis/fixpoint.hpp"

namespace analysis {

namespace {

using p4sim::Instruction;
using p4sim::Op;
using p4sim::Program;

std::string bound_str(U128 v) {
  std::string s = u128_str(v);
  if (v > kMax64) s += " (~2^" + std::to_string(bit_length(v) - 1) + ")";
  return s;
}

std::string range_str(const Interval& iv) {
  return "[" + u128_str(iv.lo) + ", " + bound_str(iv.hi) + "]";
}

/// Deduplicating diagnostic emitter for the final reporting step: the same
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

/// The interval domain: the engine tracks and jumps each register's high
/// bound and widens a register to its declared width.
struct OverflowDomain {
  using Value = Interval;
  static constexpr std::size_t kTracked = 1;

  static std::array<U128, kTracked> tracked(const Interval& v) {
    return {v.hi};
  }
  static void jump(Interval& v, const std::array<PolyFit, kTracked>& fit,
                   U128 steps) {
    v.hi = poly_jump(v.hi, fit[0], steps);
  }
  static void widen(Interval& v, const Interval& /*before*/,
                    unsigned width_bits) {
    v = join(v, Interval::width(width_bits));
  }

  /// One abstract execution of a program: propagates intervals through
  /// temps, widens register/field state, and (when em.engine is set)
  /// reports overflow findings.
  void transfer(const StageAlternative& alt, std::vector<Interval>& regs,
                FieldValues<Interval>& fs) {
    const Program& p = *alt.program;
    const p4sim::RegisterFile& rf = *registers;
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
          r = ins.imm < alt.params.size() ? alt.params[ins.imm]
                                          : Interval::constant(0);
          break;
        case Op::kMov: r = a; break;
        case Op::kLoadField:
          r = fs[static_cast<std::size_t>(ins.field)];
          break;
        case Op::kStoreField: {
          const p4sim::FieldInfo& fi = p4sim::field_info(ins.field);
          if (!a.fits(fi.analysis_bits)) {
            em.emit("S4-OVF-002", Severity::kError, p.name, loc, fi.name,
                    std::string("value range ") + range_str(a) +
                        " cannot fit field '" + fi.name + "' (" +
                        std::to_string(fi.analysis_bits) + " bits) " +
                        em.scope);
          }
          fs[static_cast<std::size_t>(ins.field)] = a;
          continue;
        }
        case Op::kLoadReg:
          r = ins.reg < regs.size() ? regs[ins.reg] : Interval::top64();
          break;
        case Op::kStoreReg: {
          if (ins.reg >= regs.size()) continue;
          const unsigned w = rf.info(ins.reg).width_bits;
          if (!b.fits(w)) {
            em.emit("S4-OVF-001", Severity::kError, p.name, loc,
                    rf.info(ins.reg).name,
                    std::string("value range ") + range_str(b) +
                        " cannot fit register '" + rf.info(ins.reg).name +
                        "' (" + std::to_string(w) + " bits) " + em.scope);
          }
          regs[ins.reg] = join(regs[ins.reg], b);
          continue;
        }
        case Op::kHash1:
        case Op::kHash2: r = Interval::top64(); break;
        case Op::kDigest: continue;
        default: r = iv_alu(ins.op, a, b, temps[ins.c], &ovf, &wrap); break;
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

  const p4sim::RegisterFile* registers = nullptr;
  Emitter em;  ///< silent until the reporting step
  std::vector<Interval> temps;
};

}  // namespace

void run_overflow_pass(const AbstractPipeline& pipeline,
                       const AnalysisOptions& options,
                       AnalysisResult& result) {
  OverflowDomain domain;
  domain.registers = pipeline.registers;
  FixpointEngine<OverflowDomain> engine(pipeline, options, domain);
  const FixpointRun<Interval> run = engine.run();

  // Reporting step: re-run every alternative from the final state, leaving
  // it unchanged, so each witness range reflects the observation count.
  domain.em.engine = &result.diags;
  domain.em.scope =
      run.fixpoint ? "(holds for any packet count)"
                   : "within " + std::to_string(run.observations) +
                         " observations";
  (void)engine.step(run.regs);

  result.iterations = run.observations;
  result.fixpoint = run.fixpoint;
  result.extrapolated = run.extrapolated;
  for (std::size_t r = 0; r < run.regs.size(); ++r) {
    const auto& info =
        pipeline.registers->info(static_cast<p4sim::RegisterId>(r));
    if (run.widened[r]) {  // only ever after kMaxExactIterations exact steps
      result.diags.report(
          "S4-OVF-005", Severity::kWarning,
          "register '" + info.name + "' growth did not stabilize within " +
              std::to_string(kMaxExactIterations) +
              " exact iterations and is not polynomial; its bound at " +
              std::to_string(run.observations) +
              " observations is assumed, not proven",
          SourceLoc{pipeline.name, -1, info.name});
    }
    RegisterBound rb;
    rb.name = info.name;
    rb.width_bits = info.width_bits;
    rb.lo = clamp_u64(run.regs[r].lo);
    rb.hi = clamp_u64(run.regs[r].hi);
    rb.exceeds_width = !run.regs[r].fits(info.width_bits);
    result.register_bounds.push_back(std::move(rb));
  }
}

}  // namespace analysis
