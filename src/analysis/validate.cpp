#include "analysis/validate.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "analysis/dataflow.hpp"

namespace analysis {

using sym::Dag;
using sym::DigestEvent;
using sym::NodeId;
using sym::RegStore;
using sym::SymEnv;
using sym::SymState;
using sym::Valuation;
using sym::VarRef;
using sym::Word;

namespace {

/// Concrete valuations drawn when canonicalization leaves residual pairs,
/// and the seed of the first ("STAT4TV").
constexpr std::size_t kSamples = 4096;
constexpr std::uint64_t kSampleSeed = 0x53544154'34545600ull;

std::string hex(Word v) {
  if (v <= 9) return std::to_string(v);
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
  return std::string(buf);
}

/// One observable pair that must evaluate equal under every input.
struct NodeObligation {
  std::string name;
  NodeId before = 0;
  NodeId after = 0;
};

/// A register whose store sequences did not match structurally: compared by
/// concrete final-cell state (store order applied, bounds and widths
/// honored), which is the honest observable when a store was dropped,
/// duplicated, or had its operands rewritten past canonical form.
struct RegObligation {
  p4sim::RegisterId reg = 0;
  std::string name;
  std::vector<RegStore> before;
  std::vector<RegStore> after;
  bool bounded = false;
  Word size = 0;
  Word mask = ~Word{0};
};

struct Mismatch {
  std::string observable;
  Word before_value = 0;
  Word after_value = 0;
};

/// All collected obligations plus the DAG they refer into.
struct Obligations {
  std::size_t total = 0;
  std::vector<NodeObligation> residual;  ///< node pairs with different ids
  std::vector<RegObligation> regs;

  [[nodiscard]] bool proved() const noexcept {
    return residual.empty() && regs.empty();
  }
  [[nodiscard]] std::size_t residual_count() const noexcept {
    return residual.size() + regs.size();
  }
};

void compare_nodes(Obligations& out, std::string name, NodeId before,
                   NodeId after) {
  ++out.total;
  if (before != after) {
    out.residual.push_back({std::move(name), before, after});
  }
}

/// Digest streams: walk both event lists (events whose condition normalized
/// to constant 0 can never fire and are skipped — this is how constprop's
/// provably-dead digest removal is proven).  Same-id events pair up as
/// condition + condition-gated payload obligations; an event left without a
/// partner must be provably silent (condition == 0).
void compare_digests(Obligations& out, Dag& dag,
                     const std::vector<DigestEvent>& before,
                     const std::vector<DigestEvent>& after) {
  auto live = [](const std::vector<DigestEvent>& events) {
    std::vector<const DigestEvent*> kept;
    for (const DigestEvent& e : events) {
      if (e.cond != 0) kept.push_back(&e);  // node 0 == constant 0
    }
    return kept;
  };
  const std::vector<const DigestEvent*> b = live(before);
  const std::vector<const DigestEvent*> a = live(after);

  const NodeId zero = dag.constant(0);
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t k = 0;
  while (i < b.size() || j < a.size()) {
    const std::string tag = "digest#" + std::to_string(k++);
    if (i < b.size() && j < a.size() && b[i]->id == a[j]->id) {
      compare_nodes(out, tag + ".cond", b[i]->cond, a[j]->cond);
      // Payloads only observable when the digest fires.
      const NodeId pb0 = dag.ite(b[i]->cond, b[i]->payload0, zero);
      const NodeId pa0 = dag.ite(a[j]->cond, a[j]->payload0, zero);
      const NodeId pb1 = dag.ite(b[i]->cond, b[i]->payload1, zero);
      const NodeId pa1 = dag.ite(a[j]->cond, a[j]->payload1, zero);
      const NodeId pb2 = dag.ite(b[i]->cond, b[i]->payload2, zero);
      const NodeId pa2 = dag.ite(a[j]->cond, a[j]->payload2, zero);
      compare_nodes(out, tag + ".payload0", pb0, pa0);
      compare_nodes(out, tag + ".payload1", pb1, pa1);
      compare_nodes(out, tag + ".payload2", pb2, pa2);
      ++i;
      ++j;
    } else if (i < b.size()) {
      compare_nodes(out, tag + ".dropped(id=" + std::to_string(b[i]->id) + ")",
                    b[i]->cond, zero);
      ++i;
    } else {
      compare_nodes(out, tag + ".added(id=" + std::to_string(a[j]->id) + ")",
                    zero, a[j]->cond);
      ++j;
    }
  }
}

std::string register_name(const ValidateOptions& opts, p4sim::RegisterId reg) {
  if (opts.registers != nullptr && reg < opts.registers->array_count()) {
    return opts.registers->info(reg).name;
  }
  return "reg" + std::to_string(reg);
}

/// Per-register store sequences.  Equal length with identical (index, value)
/// node pairs is a structural proof (passes never reorder stores, so order
/// preservation is part of the contract); anything else falls back to a
/// concrete final-cell-state comparison so reorderings and overwrites are
/// judged by what the RegisterFile would actually hold.
void compare_registers(Obligations& out, const ValidateOptions& opts,
                       const SymState& before, const SymState& after) {
  std::vector<p4sim::RegisterId> touched;
  for (const auto& [reg, seq] : before.stores) touched.push_back(reg);
  for (const auto& [reg, seq] : after.stores) touched.push_back(reg);
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  static const std::vector<RegStore> kEmpty;
  for (const p4sim::RegisterId reg : touched) {
    const std::vector<RegStore>* sb = before.stores_for(reg);
    const std::vector<RegStore>* sa = after.stores_for(reg);
    if (sb == nullptr) sb = &kEmpty;
    if (sa == nullptr) sa = &kEmpty;
    ++out.total;
    const bool structural =
        sb->size() == sa->size() &&
        std::equal(sb->begin(), sb->end(), sa->begin(),
                   [](const RegStore& x, const RegStore& y) {
                     return x.index == y.index && x.value == y.value;
                   });
    if (structural) continue;

    RegObligation ob;
    ob.reg = reg;
    ob.name = register_name(opts, reg);
    ob.before = *sb;
    ob.after = *sa;
    if (opts.registers != nullptr && reg < opts.registers->array_count()) {
      const p4sim::RegisterArrayInfo& info = opts.registers->info(reg);
      ob.bounded = true;
      ob.size = info.size;
      const std::uint32_t w = std::min(info.width_bits, 64u);
      ob.mask = w >= 64 ? ~Word{0} : (Word{1} << w) - 1;
    }
    out.regs.push_back(std::move(ob));
  }
}

/// Evaluates every obligation under one valuation; returns the first
/// disagreement (nullopt = this input cannot tell the programs apart).
std::optional<Mismatch> check(const Dag& dag, const Obligations& obs,
                              const Valuation& val) {
  std::vector<std::optional<Word>> cache(dag.size());
  for (const NodeObligation& ob : obs.residual) {
    const Word vb = sym::evaluate(dag, ob.before, val, cache);
    const Word va = sym::evaluate(dag, ob.after, val, cache);
    if (vb != va) return Mismatch{ob.name, vb, va};
  }
  for (const RegObligation& ob : obs.regs) {
    auto final_cells = [&](const std::vector<RegStore>& seq) {
      std::map<Word, Word> cells;
      for (const RegStore& s : seq) {
        const Word idx = sym::evaluate(dag, s.index, val, cache);
        if (ob.bounded && idx >= ob.size) continue;  // OOB writes drop
        cells[idx] = sym::evaluate(dag, s.value, val, cache);
      }
      return cells;
    };
    const std::map<Word, Word> cb = final_cells(ob.before);
    const std::map<Word, Word> ca = final_cells(ob.after);
    std::vector<Word> indexes;
    for (const auto& [idx, v] : cb) indexes.push_back(idx);
    for (const auto& [idx, v] : ca) indexes.push_back(idx);
    std::sort(indexes.begin(), indexes.end());
    indexes.erase(std::unique(indexes.begin(), indexes.end()), indexes.end());
    for (const Word idx : indexes) {
      // A cell one side never stored keeps its initial value.
      const Word init = val.reg_value(ob.reg, idx, ob.mask);
      const auto ib = cb.find(idx);
      const auto ia = ca.find(idx);
      const Word vb = ib != cb.end() ? ib->second : init;
      const Word va = ia != ca.end() ? ia->second : init;
      if (vb != va) {
        return Mismatch{ob.name + "[" + std::to_string(idx) + "]", vb, va};
      }
    }
  }
  return std::nullopt;
}

Valuation with_pins(std::uint64_t seed,
                    const std::vector<std::pair<VarRef, Word>>& vars,
                    const std::vector<Valuation::RegCell>& regs) {
  Valuation val(seed);
  for (const auto& [ref, v] : vars) val.pin_var(ref, v);
  for (const Valuation::RegCell& c : regs) val.pin_reg(c.reg, c.index, c.value);
  return val;
}

/// Shrinks a failing valuation: every input read by the failing check is
/// pinned, then values are zeroed and individual bits cleared as long as
/// the disagreement survives.  The result is the smallest assignment (by
/// popcount) this greedy walk reaches — typically one or two live inputs.
Counterexample minimize(const Dag& dag, const Obligations& obs,
                        std::uint64_t seed) {
  Valuation base(seed);
  const std::optional<Mismatch> first = check(dag, obs, base);
  std::vector<std::pair<VarRef, Word>> vars = base.used_vars();
  std::vector<Valuation::RegCell> regs = base.used_regs();

  auto still_fails = [&](const std::vector<std::pair<VarRef, Word>>& v,
                         const std::vector<Valuation::RegCell>& r) {
    const Valuation trial = with_pins(seed, v, r);
    return check(dag, obs, trial).has_value();
  };

  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (vars[i].second == 0) continue;
    const Word saved = vars[i].second;
    vars[i].second = 0;
    if (!still_fails(vars, regs)) vars[i].second = saved;
  }
  for (std::size_t i = 0; i < regs.size(); ++i) {
    if (regs[i].value == 0) continue;
    const Word saved = regs[i].value;
    regs[i].value = 0;
    if (!still_fails(vars, regs)) regs[i].value = saved;
  }
  for (auto& [ref, value] : vars) {
    for (int bit = 63; bit >= 0 && value != 0; --bit) {
      const Word m = Word{1} << bit;
      if ((value & m) == 0) continue;
      value &= ~m;
      if (!still_fails(vars, regs)) value |= m;
    }
  }
  for (Valuation::RegCell& cell : regs) {
    for (int bit = 63; bit >= 0 && cell.value != 0; --bit) {
      const Word m = Word{1} << bit;
      if ((cell.value & m) == 0) continue;
      cell.value &= ~m;
      if (!still_fails(vars, regs)) cell.value |= m;
    }
  }

  const Valuation final_val = with_pins(seed, vars, regs);
  const std::optional<Mismatch> mism = check(dag, obs, final_val);

  Counterexample ce;
  ce.seed = seed;
  const Mismatch& m = mism ? *mism : *first;
  ce.observable = m.observable;
  ce.before_value = m.before_value;
  ce.after_value = m.after_value;
  std::string bind;
  for (const auto& [ref, v] : vars) {
    if (v == 0) continue;  // zeros are the default reading; keep it short
    if (!bind.empty()) bind += ", ";
    bind += ref.name() + "=" + hex(v);
  }
  for (const Valuation::RegCell& c : regs) {
    if (c.value == 0) continue;
    if (!bind.empty()) bind += ", ";
    bind += "reg" + std::to_string(c.reg) + "[" + std::to_string(c.index) +
            "]=" + hex(c.value);
  }
  if (bind.empty()) bind = "all inputs zero";
  ce.bindings = std::move(bind);
  return ce;
}

/// Shared tail: collect obligations from two final states, prove or sample.
ValidationOutcome judge(Dag& dag, const ValidateOptions& opts,
                        const SymState& before, const SymState& after) {
  Obligations obs;
  for (std::size_t t = 0; t < p4sim::kTempCount; ++t) {
    if (opts.live_out.test(t)) {
      compare_nodes(obs, "t" + std::to_string(t), before.temps[t],
                    after.temps[t]);
    }
  }
  for (std::size_t f = 0; f < p4sim::kFieldCount; ++f) {
    compare_nodes(obs, p4sim::field_info(static_cast<p4sim::FieldRef>(f)).name,
                  before.fields[f], after.fields[f]);
  }
  compare_digests(obs, dag, before.digests, after.digests);
  compare_registers(obs, opts, before, after);

  ValidationOutcome out;
  out.obligations = obs.total;
  out.residual = obs.residual_count();
  out.dag_nodes = dag.size();
  if (obs.proved()) {
    out.method = ValidationMethod::kProved;
    return out;
  }
  for (std::size_t s = 0; s < kSamples; ++s) {
    const std::uint64_t seed = kSampleSeed + 0x9E3779B97F4A7C15ull * (s + 1);
    const Valuation val(seed);
    if (check(dag, obs, val)) {
      out.method = ValidationMethod::kRefuted;
      out.counterexample = minimize(dag, obs, seed);
      return out;
    }
  }
  out.method = ValidationMethod::kSampled;
  return out;
}

ValidationOutcome budget_outcome(const Dag& dag) {
  ValidationOutcome out;
  out.method = ValidationMethod::kBudget;
  out.dag_nodes = dag.size();
  return out;
}

}  // namespace

const char* to_string(ValidationMethod m) noexcept {
  switch (m) {
    case ValidationMethod::kProved: return "proved";
    case ValidationMethod::kSampled: return "sampled";
    case ValidationMethod::kRefuted: return "refuted";
    case ValidationMethod::kBudget: return "budget";
    case ValidationMethod::kInapplicable: return "inapplicable";
  }
  return "?";
}

std::string Counterexample::render() const {
  return "observable '" + observable + "': before=" + hex(before_value) +
         " after=" + hex(after_value) + " when " + bindings +
         " (seed " + hex(seed) + ")";
}

ValidationOutcome validate_rewrite(const p4sim::Program& before,
                                   const p4sim::Program& after,
                                   const ValidateOptions& opts) {
  Dag dag;
  const SymEnv env{opts.registers, opts.dirty_on_entry};
  const SymState sb = sym::sym_execute(before, dag, env);
  if (dag.size() > opts.max_dag_nodes) return budget_outcome(dag);
  const SymState sa = sym::sym_execute(after, dag, env);
  if (dag.size() > opts.max_dag_nodes) return budget_outcome(dag);
  return judge(dag, opts, sb, sa);
}

ValidationOutcome validate_pack(const p4sim::Program& first,
                                const p4sim::Program& second,
                                const p4sim::Program& packed,
                                const ValidateOptions& opts) {
  Dag dag;
  const SymEnv env{opts.registers, opts.dirty_on_entry};
  SymState sb = sym::sym_execute(first, dag, env);
  sym::sym_execute_onto(second, dag, env, sb);
  if (dag.size() > opts.max_dag_nodes) return budget_outcome(dag);
  const SymState sa = sym::sym_execute(packed, dag, env);
  if (dag.size() > opts.max_dag_nodes) return budget_outcome(dag);
  return judge(dag, opts, sb, sa);
}

ValidationOutcome validate_commute(const p4sim::Program& first,
                                   const p4sim::Program& second,
                                   const ValidateOptions& opts) {
  // Commutation is only claimed for fully state-disjoint stages: no shared
  // register arrays, no field one writes and the other touches, no temp one
  // writes and the other reads on entry, and no shared written temp that a
  // later stage still observes.  Anything else: no claim (kInapplicable) —
  // the concatenation proof from validate_pack carries correctness.
  const ProgramFacts f1 = collect_facts(first);
  const ProgramFacts f2 = collect_facts(second);
  ValidationOutcome out;
  const auto fields_overlap = [](const ProgramFacts& w, const ProgramFacts& r) {
    return (w.fields_written & (r.fields_read | r.fields_written)).any();
  };
  if (f1.registers_conflict(f2) || fields_overlap(f1, f2) ||
      fields_overlap(f2, f1) || (f1.written & f2.upward_exposed).any() ||
      (f2.written & f1.upward_exposed).any() ||
      (f1.written & f2.written & opts.live_out).any()) {
    out.method = ValidationMethod::kInapplicable;
    return out;
  }

  Dag dag;
  const SymEnv env{opts.registers, opts.dirty_on_entry};
  SymState s12 = sym::sym_execute(first, dag, env);
  const std::size_t first_digests = s12.digests.size();
  sym::sym_execute_onto(second, dag, env, s12);
  SymState s21 = sym::sym_execute(second, dag, env);
  const std::size_t second_digests = s21.digests.size();
  sym::sym_execute_onto(first, dag, env, s21);
  if (dag.size() > opts.max_dag_nodes) return budget_outcome(dag);

  // Digest ordering across the two programs necessarily differs between the
  // two run orders; the per-program subsequences are the real observable.
  // Split each stream at the first program's recorded event count and
  // compare program-wise.
  auto split = [](const SymState& st, std::size_t n, bool first_part) {
    const auto cut =
        st.digests.begin() + static_cast<std::ptrdiff_t>(n);
    const auto begin = first_part ? st.digests.begin() : cut;
    const auto end = first_part ? cut : st.digests.end();
    return std::vector<DigestEvent>(begin, end);
  };
  SymState sb = s12;
  SymState sa = s21;
  sb.digests = split(s12, first_digests, true);
  sa.digests = split(s21, second_digests, false);  // first's events in s21
  auto first_part = judge(dag, opts, sb, sa);
  if (!first_part.equivalent()) return first_part;

  SymState sb2 = s12;
  SymState sa2 = s21;
  sb2.digests = split(s12, first_digests, false);  // second's events in s12
  sa2.digests = split(s21, second_digests, true);
  // Registers/fields/temps were already compared in first_part; clearing
  // stores here would erase information, so re-judging full states is fine
  // (structural comparisons are cheap and cached by the shared DAG).
  auto second_part = judge(dag, opts, sb2, sa2);
  second_part.obligations += first_part.obligations;
  second_part.residual += first_part.residual;
  return second_part;
}

}  // namespace analysis
