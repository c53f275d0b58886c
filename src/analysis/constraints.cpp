#include "analysis/constraints.hpp"

#include <cctype>
#include <string>
#include <vector>

#include "p4sim/dependency.hpp"

namespace analysis {

namespace {

using p4sim::Instruction;
using p4sim::Op;
using p4sim::Program;

}  // namespace

void run_constraint_pass(const Program& program, const TargetProfile& profile,
                         AnalysisResult& result) {
  // Constant-propagation shadow: which temps provably hold compile-time
  // constants (for the const-shift check).  Temps start as the constant 0.
  std::vector<bool> is_const(p4sim::kTempCount, true);
  std::size_t max_temp = 0;

  for (std::size_t i = 0; i < program.code.size(); ++i) {
    const Instruction& ins = program.code[i];
    const int loc = static_cast<int>(i);
    max_temp = std::max<std::size_t>(
        max_temp, std::max({ins.dst, ins.a, ins.b, ins.c}));

    const p4sim::OpInfo& info = p4sim::op_info(ins.op);
    if (ins.op == Op::kMul && !profile.has_mul) {
      result.diags.report(
          "S4-TGT-001", Severity::kError,
          "multiplication on target '" + profile.name +
              "', which has no multiplier; use the shift-and-add "
              "approximation (approx_mul / approx_square) instead",
          SourceLoc{program.name, loc, "mul"});
    }
    if (info.shape == p4sim::OpShape::kShift && profile.const_shift_only &&
        !is_const[ins.b]) {
      result.diags.report(
          "S4-TGT-004", Severity::kError,
          std::string("shift by a run-time amount on target '") +
              profile.name + "', which only shifts by compile-time "
              "constants; unroll into an msb_index if-ladder of "
              "constant shifts",
          SourceLoc{program.name, loc, info.name});
    }
    // A switch-ALU op is constant when all its reads are; params, loads and
    // the hash externs never are.
    if (info.writes_dst) {
      is_const[ins.dst] = info.alu && (!info.reads_a || is_const[ins.a]) &&
                          (!info.reads_b || is_const[ins.b]) &&
                          (!info.reads_c || is_const[ins.c]);
    }
  }

  if (program.code.size() > profile.max_instructions) {
    result.diags.report(
        "S4-TGT-002", Severity::kError,
        "program has " + std::to_string(program.code.size()) +
            " instructions, over target '" + profile.name + "' budget of " +
            std::to_string(profile.max_instructions),
        SourceLoc{program.name, -1, "instructions"});
  }
  if (max_temp + 1 > profile.max_temps) {
    result.diags.report(
        "S4-TGT-006", Severity::kWarning,
        "program uses temp " + std::to_string(max_temp) + ", over target '" +
            profile.name + "' scratch budget of " +
            std::to_string(profile.max_temps) + " containers",
        SourceLoc{program.name, -1, "temps"});
  }
  if (profile.max_stage_chain > 0) {
    const p4sim::ProgramAnalysis pa = p4sim::analyze_program(program);
    if (pa.longest_chain > profile.max_stage_chain) {
      result.diags.report(
          "S4-TGT-003", Severity::kWarning,
          "longest dependency chain is " + std::to_string(pa.longest_chain) +
              " sequential steps, over target '" + profile.name +
              "' stage budget of " + std::to_string(profile.max_stage_chain),
          SourceLoc{program.name, -1, "chain"});
    }
  }
}

void run_resource_lint(const p4sim::RegisterFile& regs,
                       const std::string& pipeline_name,
                       const TargetProfile& profile, AnalysisResult& result) {
  if (profile.max_state_bytes == 0) return;
  const std::size_t bytes = regs.total_state_bytes();
  if (bytes > profile.max_state_bytes) {
    result.diags.report(
        "S4-TGT-005", Severity::kWarning,
        "register state occupies " + std::to_string(bytes) +
            " bytes, over target '" + profile.name + "' budget of " +
            std::to_string(profile.max_state_bytes),
        SourceLoc{pipeline_name, -1, "state"});
  }
}

namespace {

/// Replaces comments and string/char literals with spaces (newlines kept so
/// line numbers survive).
std::string strip_comments(const std::string& src) {
  std::string out = src;
  enum { kCode, kLine, kBlock, kString } st = kCode;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char n = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (st) {
      case kCode:
        if (c == '/' && n == '/') {
          st = kLine;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && n == '*') {
          st = kBlock;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          st = kString;
          out[i] = ' ';
        }
        break;
      case kLine:
        if (c == '\n') st = kCode;
        else out[i] = ' ';
        break;
      case kBlock:
        if (c == '*' && n == '/') {
          st = kCode;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case kString:
        if (c == '"') st = kCode;
        out[i] = ' ';
        break;
    }
  }
  return out;
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

}  // namespace

void lint_p4_source(const std::string& source, const std::string& name,
                    AnalysisResult& result) {
  const std::string code = strip_comments(source);
  int line = 1;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '\n') {
      ++line;
      continue;
    }
    if (c == '/' || c == '%') {
      result.diags.report(
          "S4-SRC-001", Severity::kError,
          std::string("'") + c + "' operator in emitted P4: no P4 target "
              "supports division or modulo on run-time values",
          SourceLoc{name, line, std::string(1, c)});
      continue;
    }
    if (!ident_char(c) || (i > 0 && ident_char(code[i - 1]))) continue;
    std::size_t j = i;
    while (j < code.size() && ident_char(code[j])) ++j;
    const std::string word = code.substr(i, j - i);
    i = j - 1;
    if (word == "float" || word == "double" || word == "real") {
      result.diags.report(
          "S4-SRC-002", Severity::kError,
          "floating-point type '" + word + "' in emitted P4: P4 has no "
              "floating point; use fixed-point shifts",
          SourceLoc{name, line, word});
    } else if (word == "while" || word == "for" || word == "do") {
      result.diags.report(
          "S4-SRC-003", Severity::kError,
          "loop keyword '" + word + "' in emitted P4: P4 pipelines execute "
              "straight-line code with no loops",
          SourceLoc{name, line, word});
    }
  }
}

}  // namespace analysis
