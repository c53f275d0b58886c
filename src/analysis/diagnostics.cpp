#include "analysis/diagnostics.hpp"

#include <algorithm>
#include <ostream>
#include <tuple>

namespace analysis {

const char* severity_name(Severity s) noexcept {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

const std::vector<RuleInfo>& rule_catalogue() {
  static const std::vector<RuleInfo> kRules = {
      // ---- overflow / value-range pass (overflow.cpp) ----------------------
      {"S4-OVF-001", Severity::kError,
       "register write may exceed the array's declared width (value is "
       "truncated; the accumulator silently wraps)"},
      {"S4-OVF-002", Severity::kError,
       "packet/metadata field write may exceed the field's width"},
      {"S4-OVF-003", Severity::kError,
       "64-bit arithmetic overflow: an add/mul/shl result can exceed "
       "2^64-1 and wraps (the N*Xsumsq-style product hazard)"},
      {"S4-OVF-004", Severity::kNote,
       "subtraction may wrap below zero (unsigned modular arithmetic); "
       "benign when algebraically guarded, but intervals cannot prove it"},
      {"S4-OVF-005", Severity::kWarning,
       "register growth did not stabilize and does not fit a polynomial "
       "pattern; width-compliance at the configured observation count is "
       "unproven"},
      // ---- register hazard pass (hazards.cpp) ------------------------------
      {"S4-HAZ-001", Severity::kWarning,
       "register array is accessed through more than one index expression "
       "in a single action (hardware stateful ALUs allow one indexed "
       "read-modify-write per packet)"},
      {"S4-HAZ-002", Severity::kWarning,
       "register array is re-accessed after a write in the same action "
       "(read-after-write: the access cannot fold into one RMW operation)"},
      {"S4-HAZ-003", Severity::kNote,
       "register array is accessed from actions in more than one pipeline "
       "stage (hardware pins an array to a single stage)"},
      // ---- target-profile constraint linter (constraints.cpp) --------------
      {"S4-TGT-001", Severity::kError,
       "runtime multiplication on a target without a multiplier (use "
       "mul_shift_add or approx_square)"},
      {"S4-TGT-002", Severity::kError,
       "program exceeds the target's instruction budget"},
      {"S4-TGT-003", Severity::kWarning,
       "dependency chain exceeds the target's pipeline stage budget"},
      {"S4-TGT-004", Severity::kError,
       "shift by a runtime-variable amount on a target that only shifts by "
       "compile-time constants"},
      {"S4-TGT-005", Severity::kWarning,
       "register state exceeds the target's stateful memory budget"},
      {"S4-TGT-006", Severity::kWarning,
       "program uses more scratch temps (PHV containers) than the target "
       "provides"},
      // ---- emitted-P4 source lint (constraints.cpp) ------------------------
      {"S4-SRC-001", Severity::kError,
       "division or modulo operator in emitted P4 source (no P4 target "
       "divides)"},
      {"S4-SRC-002", Severity::kError,
       "floating-point type in emitted P4 source"},
      {"S4-SRC-003", Severity::kError,
       "loop construct in emitted P4 source (P4 control flow is loop-free)"},
      // ---- dataflow optimizer (pass_manager.cpp) ---------------------------
      {"S4-OPT-001", Severity::kNote,
       "constant propagation folded or simplified instructions"},
      {"S4-OPT-002", Severity::kNote,
       "dead-code elimination removed or renumbered instructions"},
      {"S4-OPT-003", Severity::kNote,
       "common-subexpression elimination reused earlier results"},
      {"S4-OPT-004", Severity::kNote,
       "strength reduction rewrote multiplications as shifts"},
      {"S4-OPT-005", Severity::kNote,
       "stage packing merged adjacent non-conflicting stages"},
      {"S4-OPT-006", Severity::kWarning,
       "temps cross a stage boundary; zero-seeding and temp compaction are "
       "suppressed for the action"},
      {"S4-OPT-007", Severity::kWarning,
       "optimizer stopped before reaching a fixpoint (iteration budget)"},
      {"S4-TV-001", Severity::kError,
       "translation validation refuted an optimizer rewrite; a concrete "
       "counterexample valuation is attached and the rewrite was reverted"},
      {"S4-TV-002", Severity::kWarning,
       "equivalence established only by randomized sampling of a residual "
       "obligation, not by canonicalization proof (error under strict)"},
      {"S4-TV-003", Severity::kError,
       "stage-packing validation failed: the packed stage is not equivalent "
       "to running the original stages in sequence"},
      {"S4-TV-004", Severity::kNote,
       "translation validation summary (checked/proved/sampled/refuted)"},
      {"S4-TV-005", Severity::kWarning,
       "symbolic execution node budget exceeded before the pass could be "
       "validated (error under strict)"},
      {"S4-PREC-001", Severity::kError,
       "an output register or field carries a vacuous error bound (half its "
       "ring): the precision analysis proves nothing about its accuracy"},
      {"S4-PREC-002", Severity::kWarning,
       "growth did not stabilize and is not polynomial; the register was "
       "widened, so its bounds at the observation budget are assumed, not "
       "proven"},
      {"S4-PREC-003", Severity::kNote,
       "proven per-output max |error| and value bound under the configured "
       "observation budget"},
      {"S4-PREC-004", Severity::kError,
       "approx-span accuracy metadata is invalid (bad instruction range, "
       "output temp, or zero denominator); the span is ignored"},
      {"S4-PREC-005", Severity::kError,
       "no sketch geometry can meet the requested eps-delta target within "
       "the hash layout's width/depth caps"},
      {"S4-PREC-006", Severity::kNote,
       "recommended count-min/count-sketch width and depth for the "
       "requested eps-delta target and observation budget"},
  };
  return kRules;
}

void DiagnosticEngine::report(std::string rule, Severity severity,
                              std::string message, SourceLoc loc) {
  diags_.push_back(Diagnostic{std::move(rule), severity, std::move(message),
                              std::move(loc)});
}

std::size_t DiagnosticEngine::count(Severity s) const noexcept {
  std::size_t n = 0;
  for (const auto& d : diags_) {
    if (d.severity == s) ++n;
  }
  return n;
}

void DiagnosticEngine::sort() {
  std::stable_sort(diags_.begin(), diags_.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return std::make_tuple(
                                static_cast<int>(b.severity), a.loc.program,
                                a.loc.instruction, a.rule, a.loc.object) <
                            std::make_tuple(
                                static_cast<int>(a.severity), b.loc.program,
                                b.loc.instruction, b.rule, b.loc.object);
                   });
}

std::size_t DiagnosticEngine::render_text(std::ostream& os,
                                          Severity min) const {
  std::size_t lines = 0;
  std::size_t suppressed = 0;
  for (const auto& d : diags_) {
    if (d.severity < min) {
      ++suppressed;
      continue;
    }
    os << d.loc.program;
    if (d.loc.instruction >= 0) os << ':' << d.loc.instruction;
    os << ": " << severity_name(d.severity) << ": " << d.message << " ["
       << d.rule;
    if (!d.loc.object.empty()) os << ": " << d.loc.object;
    os << "]\n";
    ++lines;
  }
  os << count(Severity::kError) << " error(s), " << count(Severity::kWarning)
     << " warning(s), " << count(Severity::kNote) << " note(s)";
  if (suppressed != 0) os << " (" << suppressed << " below threshold)";
  os << '\n';
  return lines;
}

void DiagnosticEngine::render_json(std::ostream& os) const {
  os << "{\"diagnostics\":[";
  bool first = true;
  for (const auto& d : diags_) {
    if (!first) os << ',';
    first = false;
    os << "{\"rule\":\"" << json_escape(d.rule) << "\",\"severity\":\""
       << severity_name(d.severity) << "\",\"message\":\""
       << json_escape(d.message) << "\",\"program\":\""
       << json_escape(d.loc.program) << "\",\"instruction\":"
       << d.loc.instruction << ",\"object\":\"" << json_escape(d.loc.object)
       << "\"}";
  }
  os << "],\"counts\":{\"error\":" << count(Severity::kError)
     << ",\"warning\":" << count(Severity::kWarning)
     << ",\"note\":" << count(Severity::kNote) << "}}";
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace analysis
