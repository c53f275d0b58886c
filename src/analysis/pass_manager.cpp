#include "analysis/pass_manager.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <stdexcept>
#include <utility>

#include "analysis/dataflow.hpp"
#include "analysis/validate.hpp"
#include "p4sim/register_file.hpp"
#include "p4sim/table.hpp"

namespace analysis {

using p4sim::ActionId;
using p4sim::P4Switch;
using p4sim::Program;
using p4sim::RegisterId;

namespace {

/// Which of the canonical passes are enabled, in pass_names() order.
using PassSet = std::array<bool, 5>;
constexpr std::size_t kPackPass = 4;

/// The per-program passes, in pass_names() order (stage packing, the last
/// name, rewrites the pipeline instead).
struct ProgramPass {
  const char* name;
  std::size_t (*run)(Program&, const PassContext&);
};
constexpr ProgramPass kProgramPasses[] = {{"constprop", run_constprop},
                                          {"strength", run_strength_reduction},
                                          {"cse", run_cse},
                                          {"dce", run_dce}};

PassSet resolve_passes(const std::vector<std::string>& names) {
  PassSet set{};
  if (names.empty()) {
    set.fill(true);
    return set;
  }
  const std::vector<std::string>& all = pass_names();
  for (const std::string& n : names) {
    const auto it = std::find(all.begin(), all.end(), n);
    if (it == all.end()) throw std::invalid_argument("unknown pass: " + n);
    set[static_cast<std::size_t>(it - all.begin())] = true;
  }
  return set;
}

const char* rule_for_pass(const std::string& pass) {
  if (pass == "constprop") return "S4-OPT-001";
  if (pass == "dce") return "S4-OPT-002";
  if (pass == "cse") return "S4-OPT-003";
  if (pass == "strength") return "S4-OPT-004";
  return "S4-OPT-005";  // pack
}

/// Cross-stage temp context for every registered action, computed
/// pessimistically: a table stage may dispatch ANY action (the controller
/// can table_add at runtime), so each table stage contributes the union of
/// all actions' written / upward-exposed sets at its pipeline position.
struct ActionContexts {
  std::vector<PassContext> ctx;
  std::vector<bool> shared;  ///< temps genuinely cross this action's bounds
};

ActionContexts compute_contexts(const P4Switch& sw) {
  const std::size_t n = sw.action_count();
  std::vector<ProgramFacts> facts;
  facts.reserve(n);
  TempSet all_written;
  TempSet all_exposed;
  for (ActionId id = 0; id < n; ++id) {
    facts.push_back(collect_facts(sw.action(id)));
    all_written |= facts.back().written;
    all_exposed |= facts.back().upward_exposed;
  }

  const auto& pipe = sw.pipeline();
  const std::size_t stages = pipe.size();
  const TempSet empty;
  auto stage_written = [&](std::size_t si) -> const TempSet& {
    if (pipe[si].table) return all_written;
    return pipe[si].action ? facts[*pipe[si].action].written : empty;
  };
  auto stage_exposed = [&](std::size_t si) -> const TempSet& {
    if (pipe[si].table) return all_exposed;
    return pipe[si].action ? facts[*pipe[si].action].upward_exposed : empty;
  };

  // prefix[si] = temps some stage BEFORE si may write;
  // suffix[si] = temps some stage AT OR AFTER si may read before writing.
  std::vector<TempSet> prefix(stages + 1);
  std::vector<TempSet> suffix(stages + 1);
  for (std::size_t si = 0; si < stages; ++si) {
    prefix[si + 1] = prefix[si] | stage_written(si);
  }
  for (std::size_t si = stages; si-- > 0;) {
    suffix[si] = suffix[si + 1] | stage_exposed(si);
  }

  ActionContexts out;
  out.ctx.resize(n);
  out.shared.assign(n, false);
  for (std::size_t si = 0; si < stages; ++si) {
    if (pipe[si].action) {
      PassContext& c = out.ctx[*pipe[si].action];
      c.dirty_on_entry |= prefix[si];
      c.live_out |= suffix[si + 1];
    }
    if (pipe[si].table) {
      for (ActionId id = 0; id < n; ++id) {
        out.ctx[id].dirty_on_entry |= prefix[si];
        out.ctx[id].live_out |= suffix[si + 1];
      }
    }
  }
  for (ActionId id = 0; id < n; ++id) {
    out.ctx[id].registers = &sw.registers();
    // "Shared" = the context actually constrains rewrites: the action reads
    // temps an earlier stage may have written, or a later stage reads temps
    // past this one.  Self-contained builder programs never trip this.
    const bool reads_dirty =
        (facts[id].upward_exposed & out.ctx[id].dirty_on_entry).any();
    out.shared[id] = reads_dirty || out.ctx[id].live_out.any();
  }
  return out;
}

void add_register_costs(const P4Switch& sw, const std::set<RegisterId>& regs,
                        CostSummary& cost) {
  cost.registers = regs.size();
  for (const RegisterId r : regs) {
    const p4sim::RegisterArrayInfo& info = sw.registers().info(r);
    cost.state_bytes += static_cast<std::size_t>(info.size) *
                        ((static_cast<std::size_t>(info.width_bits) + 7) / 8);
  }
}

/// Per-pass translation validation: re-proves each pass's output against
/// its input, reverts refuted rewrites, tallies evidence tiers, and turns
/// outcomes into S4-TV diagnostics (strict mode escalates the sampling
/// fallback and budget exhaustion from warning to error).
class PassValidator {
 public:
  PassValidator(const PassManagerOptions& options,
                const p4sim::RegisterFile* registers, OptimizeResult& res)
      : options_(options), registers_(registers), res_(res) {}

  [[nodiscard]] bool enabled() const {
    return options_.validate != ValidateMode::kOff ||
           static_cast<bool>(options_.post_pass_mutation);
  }

  /// Validates `after` (the pass output, possibly test-mutated via the
  /// post_pass_mutation hook) against `before`.  Returns false when the
  /// rewrite was refuted — the caller must revert to `before`.
  [[nodiscard]] bool check_rewrite(const Program& before, Program& after,
                                   const PassContext& ctx,
                                   const std::string& pass) {
    if (options_.post_pass_mutation) options_.post_pass_mutation(after, pass);
    const ValidationOutcome out =
        validate_rewrite(before, after, make_opts(ctx));
    record(out, pass, after.name, "S4-TV-001");
    return out.method != ValidationMethod::kRefuted;
  }

  /// Validates one stage-pack merge: the packed program against first-then-
  /// second concatenation, plus the commutation claim when the stages are
  /// state-disjoint.  Returns false when the concatenation was refuted.
  [[nodiscard]] bool check_pack(const Program& first, const Program& second,
                                const Program& packed, const PassContext& ctx) {
    ++res_.validation.packs;
    Program subject = packed;
    if (options_.post_pass_mutation) {
      options_.post_pass_mutation(subject, "pack");
    }
    const ValidationOutcome conc =
        validate_pack(first, second, subject, make_opts(ctx));
    record(conc, "pack", subject.name, "S4-TV-003");
    const ValidationOutcome comm =
        validate_commute(first, second, make_opts(ctx));
    record(comm, "pack(commute)", subject.name, "S4-TV-003");
    return conc.method != ValidationMethod::kRefuted;
  }

  void note_summary() {
    if (!enabled()) return;
    const ValidationStats& v = res_.validation;
    res_.diags.report(
        "S4-TV-004", Severity::kNote,
        "translation validation: " + std::to_string(v.checked) +
            " rewrite(s) checked, " + std::to_string(v.proved) + " proved, " +
            std::to_string(v.sampled) + " sampled, " +
            std::to_string(v.refuted) + " refuted, " +
            std::to_string(v.budget) + " budget-capped (" +
            std::to_string(v.packs) + " pack merge(s))",
        SourceLoc{});
  }

 private:
  [[nodiscard]] ValidateOptions make_opts(const PassContext& ctx) const {
    ValidateOptions v;
    v.registers = registers_;
    v.dirty_on_entry = ctx.dirty_on_entry;
    v.live_out = ctx.live_out;
    return v;
  }

  void record(const ValidationOutcome& out, const std::string& pass,
              const std::string& program, const char* refute_rule) {
    if (out.method == ValidationMethod::kInapplicable) return;  // no claim
    ++res_.validation.checked;
    SourceLoc loc;
    loc.program = program;
    const bool strict = options_.validate == ValidateMode::kStrict;
    switch (out.method) {
      case ValidationMethod::kProved:
        ++res_.validation.proved;
        break;
      case ValidationMethod::kSampled:
        ++res_.validation.sampled;
        res_.diags.report(
            "S4-TV-002", strict ? Severity::kError : Severity::kWarning,
            pass + ": equivalence established only by randomized sampling (" +
                std::to_string(out.residual) +
                " residual obligation(s) of " +
                std::to_string(out.obligations) + ")",
            loc);
        break;
      case ValidationMethod::kRefuted:
        ++res_.validation.refuted;
        res_.diags.report(refute_rule, Severity::kError,
                          pass + ": rewrite refuted, reverted — " +
                              out.counterexample->render(),
                          loc);
        break;
      case ValidationMethod::kBudget:
        ++res_.validation.budget;
        res_.diags.report(
            "S4-TV-005", strict ? Severity::kError : Severity::kWarning,
            pass + ": symbolic execution budget exceeded (" +
                std::to_string(out.dag_nodes) + " DAG nodes); nothing proven",
            loc);
        break;
      case ValidationMethod::kInapplicable:
        break;
    }
  }

  const PassManagerOptions& options_;
  const p4sim::RegisterFile* registers_;
  OptimizeResult& res_;
};

/// The fixpoint driver optimize_switch and optimize_program share: it runs
/// rounds until one rewrites nothing, runs and validates the per-program
/// passes, tallies rewrites per (pass, program) and closes the result.
class Driver {
 public:
  Driver(const PassManagerOptions& options, const PassSet& enabled,
         const p4sim::RegisterFile* registers, OptimizeResult& res)
      : options_(options),
        enabled_(enabled),
        validator_(options, registers, res),
        res_(res) {}

  [[nodiscard]] bool enabled(std::size_t pass) const { return enabled_[pass]; }
  [[nodiscard]] PassValidator& validator() { return validator_; }

  /// Calls `round()`, which returns its rewrites, until a round rewrites
  /// nothing (a fixpoint) or options.max_iterations rounds have run.
  template <typename Round>
  void iterate(Round&& round) {
    for (std::size_t i = 0; i < options_.max_iterations; ++i) {
      const std::size_t rewrites = round();
      ++res_.iterations;
      if (rewrites == 0) {
        res_.fixpoint = true;
        return;
      }
    }
  }

  /// Runs each enabled per-program pass once over `program`, in canonical
  /// order.  With validation on, each pass's output is re-proved; a refuted
  /// rewrite is reverted and contributes no rewrites.  Returns the
  /// rewrites.  Rewrites invalidate the builder-recorded approx-span
  /// instruction ranges, so they are dropped rather than shipped stale.
  std::size_t run_program_passes(Program& program, const PassContext& ctx) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < std::size(kProgramPasses); ++i) {
      if (!enabled_[i]) continue;
      const ProgramPass& pass = kProgramPasses[i];
      std::optional<Program> snapshot;
      if (validator_.enabled()) snapshot = program;
      std::size_t k = pass.run(program, ctx);
      if (snapshot && (k != 0 || options_.post_pass_mutation) &&
          !validator_.check_rewrite(*snapshot, program, ctx, pass.name)) {
        program = std::move(*snapshot);
        k = 0;
      }
      account(pass.name, program.name, k);
      n += k;
    }
    if (n != 0) program.approx_spans.clear();
    return n;
  }

  void account(const std::string& pass, const std::string& program,
               std::size_t n) {
    if (n == 0) return;
    counts_[{pass, program}] += n;
    totals_[pass] += n;
  }

  /// Closes the result: S4-OPT-007 at `where` when no fixpoint was reached,
  /// one S4-OPT note per (pass, program) that rewrote, the validation
  /// summary, sorted diagnostics and the enabled passes' totals.
  void finish(const SourceLoc& where) {
    if (!res_.fixpoint) {
      res_.diags.report("S4-OPT-007", Severity::kWarning,
                        "fixpoint not reached within " +
                            std::to_string(options_.max_iterations) +
                            " iteration(s)",
                        where);
    }
    for (const auto& [key, n] : counts_) {
      const auto& [pass, program] = key;
      SourceLoc loc;
      loc.program = program;
      res_.diags.report(rule_for_pass(pass), Severity::kNote,
                        pass + " applied " + std::to_string(n) + " rewrite(s)",
                        loc);
    }
    validator_.note_summary();
    res_.diags.sort();
    const std::vector<std::string>& names = pass_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (enabled_[i]) res_.pass_stats.push_back({names[i], totals_[names[i]]});
    }
  }

 private:
  const PassManagerOptions& options_;
  PassSet enabled_;
  PassValidator validator_;
  OptimizeResult& res_;
  std::map<std::pair<std::string, std::string>, std::size_t> counts_;
  std::map<std::string, std::size_t> totals_;
};

}  // namespace

const std::vector<std::string>& pass_names() {
  static const std::vector<std::string> kNames = {"constprop", "strength",
                                                  "cse", "dce", "pack"};
  return kNames;
}

std::size_t OptimizeResult::total_rewrites() const noexcept {
  std::size_t total = 0;
  for (const PassStats& s : pass_stats) total += s.rewrites;
  return total;
}

CostSummary measure_cost(const P4Switch& sw) {
  CostSummary cost;
  cost.stages = sw.pipeline().size();

  std::set<ActionId> reachable;
  for (const P4Switch::Stage& stage : sw.pipeline()) {
    if (stage.action) reachable.insert(*stage.action);
    if (stage.table) {
      const p4sim::MatchActionTable& table = sw.table(*stage.table);
      reachable.insert(table.default_action());
      for (const p4sim::TableEntry* entry : table.live_entries()) {
        reachable.insert(entry->action);
      }
    }
  }

  std::set<RegisterId> regs;
  for (const ActionId id : reachable) {
    const Program& program = sw.action(id);
    cost.instructions += program.code.size();
    const ProgramFacts facts = collect_facts(program);
    cost.temps = std::max(cost.temps, facts.max_temp_plus_one);
    regs.insert(facts.regs_read.begin(), facts.regs_read.end());
    regs.insert(facts.regs_written.begin(), facts.regs_written.end());
  }
  add_register_costs(sw, regs, cost);
  return cost;
}

CostSummary measure_cost(const Program& program) {
  CostSummary cost;
  cost.instructions = program.code.size();
  cost.stages = 1;
  const ProgramFacts facts = collect_facts(program);
  cost.temps = facts.max_temp_plus_one;
  std::set<RegisterId> regs = facts.regs_read;
  regs.insert(facts.regs_written.begin(), facts.regs_written.end());
  cost.registers = regs.size();
  return cost;
}

OptimizeResult optimize_switch(P4Switch& sw,
                               const PassManagerOptions& options) {
  OptimizeResult res;
  res.before = measure_cost(sw);
  Driver driver(options, resolve_passes(options.passes), &sw.registers(),
                res);
  PassValidator& validator = driver.validator();
  std::set<std::string> warned_shared;

  driver.iterate([&] {
    const ActionContexts actx = compute_contexts(sw);
    for (ActionId id = 0; id < sw.action_count(); ++id) {
      if (!actx.shared[id]) continue;
      const std::string& name = sw.action(id).name;
      if (!warned_shared.insert(name).second) continue;
      SourceLoc loc;
      loc.program = name;
      res.diags.report(
          "S4-OPT-006", Severity::kWarning,
          "temps cross this action's stage boundary; constant seeding and "
          "temp compaction are suppressed",
          loc);
    }

    std::size_t round_rewrites = 0;
    for (ActionId id = 0; id < sw.action_count(); ++id) {
      Program program = sw.action(id);  // work on a copy, install on change
      const std::size_t n = driver.run_program_passes(program, actx.ctx[id]);
      if (n != 0) sw.replace_action(id, std::move(program));
      round_rewrites += n;
    }
    if (driver.enabled(kPackPass)) {
      // Snapshot the pre-pack pipeline so each merged stage can be diffed
      // back to the pair of stages it replaced — and recompute contexts
      // first: the per-action rewrites above may have renamed temps, so the
      // round-start contexts are stale for the packing proof.
      std::optional<std::vector<P4Switch::Stage>> pre_pipe;
      std::optional<ActionContexts> pre_ctx;
      std::size_t pre_actions = 0;
      if (validator.enabled()) {
        pre_pipe = sw.pipeline();
        pre_actions = sw.action_count();
        pre_ctx = compute_contexts(sw);
      }
      std::size_t k = run_stage_packing(sw, options.profile);
      if (k != 0 && validator.enabled()) {
        // Diff walk: stage packing only creates pairwise merges per call,
        // so a new stage dispatching an action registered by this call maps
        // to exactly the next two pre-pack stages.
        bool revert = false;
        std::size_t old_i = 0;
        for (const P4Switch::Stage& st : sw.pipeline()) {
          if (st.action && *st.action >= pre_actions) {
            const P4Switch::Stage& s1 = (*pre_pipe)[old_i];
            const P4Switch::Stage& s2 = (*pre_pipe)[old_i + 1];
            PassContext pack_ctx;
            pack_ctx.dirty_on_entry = pre_ctx->ctx[*s1.action].dirty_on_entry;
            pack_ctx.live_out = pre_ctx->ctx[*s2.action].live_out;
            pack_ctx.registers = &sw.registers();
            if (!validator.check_pack(sw.action(*s1.action),
                                      sw.action(*s2.action),
                                      sw.action(*st.action), pack_ctx)) {
              revert = true;
            }
            old_i += 2;
          } else {
            ++old_i;
          }
        }
        if (revert) {
          // A disproven merge never ships: restore the unpacked pipeline
          // (the merged actions stay registered but undispatched).
          sw.set_pipeline(std::move(*pre_pipe));
          k = 0;
        }
      }
      driver.account("pack", sw.name(), k);
      round_rewrites += k;
    }
    return round_rewrites;
  });

  driver.finish(SourceLoc{});
  res.after = measure_cost(sw);
  return res;
}

namespace {

OptimizeResult optimize_program_impl(Program& program,
                                     const p4sim::RegisterFile* registers,
                                     const PassManagerOptions& options) {
  PassSet enabled = resolve_passes(options.passes);
  enabled[kPackPass] = false;  // pipeline-level; meaningless for one program
  OptimizeResult res;
  res.before = measure_cost(program);
  Driver driver(options, enabled, registers, res);
  PassContext ctx;  // standalone: zero on entry, nothing live out
  ctx.registers = registers;
  driver.iterate([&] { return driver.run_program_passes(program, ctx); });

  SourceLoc loc;
  loc.program = program.name;
  driver.finish(loc);
  res.after = measure_cost(program);
  return res;
}

}  // namespace

OptimizeResult optimize_program(Program& program,
                                const PassManagerOptions& options) {
  return optimize_program_impl(program, nullptr, options);
}

OptimizeResult optimize_program(Program& program,
                                const p4sim::RegisterFile& registers,
                                const PassManagerOptions& options) {
  return optimize_program_impl(program, &registers, options);
}

void render_cost_json(std::ostream& os, const CostSummary& before,
                      const CostSummary& after) {
  auto axis = [&os](const char* key, std::size_t b, std::size_t a,
                    bool last = false) {
    os << '"' << key << "\":{\"before\":" << b << ",\"after\":" << a << '}';
    if (!last) os << ',';
  };
  os << '{';
  axis("instructions", before.instructions, after.instructions);
  axis("stages", before.stages, after.stages);
  axis("temps", before.temps, after.temps);
  axis("registers", before.registers, after.registers);
  axis("state_bytes", before.state_bytes, after.state_bytes, true);
  os << '}';
}

}  // namespace analysis
