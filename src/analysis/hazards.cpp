#include "analysis/hazards.hpp"

#include <array>
#include <map>
#include <set>
#include <string>

namespace analysis {

namespace {

using p4sim::Instruction;
using p4sim::Op;
using p4sim::Program;

/// Value numbering over a straight-line program: two temps get the same
/// number iff they provably hold the same value.  Register loads are always
/// fresh (their value depends on mutable state), field loads are versioned
/// by preceding stores.
class ValueNumbering {
 public:
  explicit ValueNumbering(const Program& p) : vn_(p4sim::kTempCount, 0) {
    // Temp 0-state: every temp starts as the constant 0.
    const int zero = number("C0");
    for (auto& v : vn_) v = zero;
    field_version_.fill(0);
    for (std::size_t i = 0; i < p.code.size(); ++i) step(p.code[i], i);
  }

  /// Value number of the index temp of instruction i (filled for every
  /// kLoadReg / kStoreReg during construction).
  [[nodiscard]] int index_vn(std::size_t i) const {
    const auto it = reg_index_vn_.find(i);
    return it == reg_index_vn_.end() ? -1 : it->second;
  }

 private:
  int number(const std::string& key) {
    const auto [it, inserted] = table_.emplace(key, next_);
    if (inserted) ++next_;
    return it->second;
  }

  void step(const Instruction& ins, std::size_t i) {
    const std::string a = std::to_string(vn_[ins.a]);
    const std::string b = std::to_string(vn_[ins.b]);
    const std::string c = std::to_string(vn_[ins.c]);
    const std::string op_name = p4sim::op_info(ins.op).name;
    switch (ins.op) {
      case Op::kConst:
        vn_[ins.dst] = number("C" + std::to_string(ins.imm));
        break;
      case Op::kParam:
        vn_[ins.dst] = number("P" + std::to_string(ins.imm));
        break;
      case Op::kMov: vn_[ins.dst] = vn_[ins.a]; break;
      case Op::kLoadField: {
        const auto f = static_cast<std::size_t>(ins.field);
        vn_[ins.dst] = number("F" + std::to_string(f) + "v" +
                              std::to_string(field_version_[f]));
        break;
      }
      case Op::kStoreField:
        ++field_version_[static_cast<std::size_t>(ins.field)];
        break;
      case Op::kLoadReg:
        reg_index_vn_[i] = vn_[ins.a];
        vn_[ins.dst] = number("L" + std::to_string(i));  // always fresh
        break;
      case Op::kStoreReg:
        reg_index_vn_[i] = vn_[ins.a];
        break;
      case Op::kHash1:
      case Op::kHash2:
        vn_[ins.dst] = number(op_name + "(" + a + ")");
        break;
      case Op::kDigest: break;
      default:
        vn_[ins.dst] = number(op_name + "(" + a + "," + b + "," + c + ")");
        break;
    }
  }

  std::map<std::string, int> table_;
  int next_ = 0;
  std::vector<int> vn_;
  std::array<std::size_t, p4sim::kFieldCount> field_version_{};
  std::map<std::size_t, int> reg_index_vn_;
};

Severity escalate(Severity base, bool strict_flag) {
  return strict_flag ? Severity::kError : base;
}

}  // namespace

void run_hazard_pass(const std::vector<HazardScope>& scopes,
                     const p4sim::RegisterFile& regs,
                     const std::string& pipeline_name,
                     const TargetProfile& profile, AnalysisResult& result) {
  // Register array -> set of stages touching it (for S4-HAZ-003).
  std::map<p4sim::RegisterId, std::set<std::size_t>> stages_touching;
  std::map<p4sim::RegisterId, std::set<std::string>> programs_touching;
  // An action placed in several stages is scanned per placement (to record
  // stage touches) but reported once.
  std::set<std::string> reported_programs;

  for (const HazardScope& scope : scopes) {
    const Program& p = *scope.program;
    const ValueNumbering vn(p);
    const bool report = reported_programs.insert(p.name).second;

    struct ArrayUse {
      std::set<int> index_vns;
      std::size_t first_multi_index = 0;  // instruction of 2nd distinct index
      bool written = false;
      bool reaccess_reported = false;
    };
    std::map<p4sim::RegisterId, ArrayUse> uses;

    for (std::size_t i = 0; i < p.code.size(); ++i) {
      const Instruction& ins = p.code[i];
      if (ins.op != Op::kLoadReg && ins.op != Op::kStoreReg) continue;
      if (ins.reg >= regs.array_count()) continue;
      const std::string& reg_name = regs.info(ins.reg).name;
      ArrayUse& use = uses[ins.reg];
      stages_touching[ins.reg].insert(scope.stage);
      programs_touching[ins.reg].insert(p.name);

      if (use.written && !use.reaccess_reported && report) {
        use.reaccess_reported = true;
        result.diags.report(
            "S4-HAZ-002",
            escalate(Severity::kWarning, profile.single_access_registers),
            std::string(ins.op == Op::kLoadReg ? "read" : "write") +
                " of register '" + reg_name +
                "' after an earlier write in the same action: needs more "
                "than one access per packet, which single-RMW stateful ALUs "
                "cannot schedule",
            SourceLoc{p.name, static_cast<int>(i), reg_name});
      }
      if (ins.op == Op::kStoreReg) use.written = true;

      const int idx = vn.index_vn(i);
      if (use.index_vns.insert(idx).second && use.index_vns.size() == 2) {
        use.first_multi_index = i;
      }
    }

    for (const auto& [reg, use] : uses) {
      if (!report || use.index_vns.size() <= 1) continue;
      result.diags.report(
          "S4-HAZ-001",
          escalate(Severity::kWarning, profile.single_access_registers),
          "register '" + regs.info(reg).name + "' is addressed through " +
              std::to_string(use.index_vns.size()) +
              " distinct index expressions in one action; hardware targets "
              "allow a single indexed access per packet",
          SourceLoc{p.name, static_cast<int>(use.first_multi_index),
                    regs.info(reg).name});
    }
  }

  for (const auto& [reg, stages] : stages_touching) {
    if (stages.size() <= 1) continue;
    std::string stage_list;
    for (const std::size_t s : stages) {
      if (!stage_list.empty()) stage_list += ", ";
      stage_list += std::to_string(s);
    }
    std::string prog_list;
    for (const auto& n : programs_touching[reg]) {
      if (!prog_list.empty()) prog_list += ", ";
      prog_list += n;
    }
    result.diags.report(
        "S4-HAZ-003",
        escalate(Severity::kNote, profile.single_stage_registers),
        "register '" + regs.info(reg).name + "' is shared across pipeline "
            "stages " + stage_list + " (actions: " + prog_list +
            "); stage-pinned register files require it to live in one stage",
        SourceLoc{pipeline_name, -1, regs.info(reg).name});
  }
}

}  // namespace analysis
