#include "analysis/passes.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

namespace analysis {

using p4sim::Guard;
using p4sim::Instruction;
using p4sim::kTempCount;
using p4sim::Op;
using p4sim::op_info;
using p4sim::OpInfo;
using p4sim::Program;
using p4sim::TempId;
using p4sim::Word;

namespace {

/// Forward constant lattice per temp: nullopt = runtime value, otherwise the
/// exact word the temp holds at this point.  Seeded with 0 for every temp
/// the surrounding pipeline cannot have written (per-packet zero init).
using ConstLattice = std::vector<std::optional<Word>>;

ConstLattice seed_lattice(const PassContext& ctx) {
  ConstLattice val(kTempCount);
  for (std::size_t t = 0; t < kTempCount; ++t) {
    if (!ctx.dirty_on_entry.test(t)) val[t] = 0;
  }
  return val;
}

/// Folds `ins` to a constant when pure with all read operands known.
std::optional<Word> try_fold(const Instruction& ins, const ConstLattice& val) {
  const OpInfo& info = op_info(ins.op);
  if (!info.pure()) return std::nullopt;
  if (info.reads_a && !val[ins.a]) return std::nullopt;
  if (info.reads_b && !val[ins.b]) return std::nullopt;
  if (info.reads_c && !val[ins.c]) return std::nullopt;
  return p4sim::eval(ins.op, ins.imm, info.reads_a ? *val[ins.a] : 0,
                     info.reads_b ? *val[ins.b] : 0,
                     info.reads_c ? *val[ins.c] : 0);
}

/// Algebraic identities over partially known operands (x+0, x<<0, x&0, ...).
Instruction simplify_with_lattice(const Instruction& ins,
                                  const ConstLattice& val) {
  auto is = [&val](TempId t, Word w) { return val[t] && *val[t] == w; };
  switch (ins.op) {
    case Op::kSelect:
      if (val[ins.a]) return make_mov(ins.dst, *val[ins.a] ? ins.b : ins.c);
      break;
    case Op::kAdd:
    case Op::kOr:
    case Op::kXor:
      if (is(ins.a, 0)) return make_mov(ins.dst, ins.b);
      if (is(ins.b, 0)) return make_mov(ins.dst, ins.a);
      break;
    case Op::kSub:
      if (is(ins.b, 0)) return make_mov(ins.dst, ins.a);
      break;
    case Op::kShl:
    case Op::kShr:
      if (val[ins.b] && (*val[ins.b] & 63) == 0) {
        return make_mov(ins.dst, ins.a);
      }
      if (is(ins.a, 0)) return make_const(ins.dst, 0);
      break;
    case Op::kAnd:
      if (is(ins.a, 0) || is(ins.b, 0)) return make_const(ins.dst, 0);
      if (is(ins.a, ~Word{0})) return make_mov(ins.dst, ins.b);
      if (is(ins.b, ~Word{0})) return make_mov(ins.dst, ins.a);
      break;
    case Op::kMul:
      if (is(ins.a, 0) || is(ins.b, 0)) return make_const(ins.dst, 0);
      if (is(ins.a, 1)) return make_mov(ins.dst, ins.b);
      if (is(ins.b, 1)) return make_mov(ins.dst, ins.a);
      break;
    default: break;
  }
  return ins;
}

/// Lattice transfer after an instruction has reached its final form.
void update_lattice(const Instruction& ins, ConstLattice& val) {
  if (!op_info(ins.op).writes_dst) return;
  if (ins.op == Op::kConst) {
    val[ins.dst] = ins.imm;
  } else if (ins.op == Op::kMov) {
    val[ins.dst] = val[ins.a];
  } else {
    val[ins.dst] = std::nullopt;
  }
}

}  // namespace

std::size_t run_constprop(Program& program, const PassContext& ctx) {
  ConstLattice val = seed_lattice(ctx);
  std::vector<Instruction> out;
  out.reserve(program.code.size());
  std::size_t rewrites = 0;
  for (const Instruction& orig : program.code) {
    if (orig.op == Op::kDigest) {
      // A digest whose condition is provably 0 can never fire.
      if (val[orig.c] && *val[orig.c] == 0) {
        ++rewrites;
        continue;
      }
      out.push_back(orig);
      continue;
    }
    Instruction ins = orig;
    if (const std::optional<Word> folded = try_fold(ins, val)) {
      ins = make_const(ins.dst, *folded);
    } else if (op_info(ins.op).pure()) {
      ins = simplify_with_lattice(ins, val);
    }
    if (!same_instruction(ins, orig)) ++rewrites;
    update_lattice(ins, val);
    out.push_back(ins);
  }
  program.code = std::move(out);
  return rewrites;
}

namespace {

// ---- local value numbering (CSE) -----------------------------------------

/// Value number 0 is the per-packet zero-initialized state every clean temp
/// starts in (identical to `kConst 0`).
constexpr std::uint32_t kZeroVn = 0;

/// Expression key: opcode + up to three operand slots + immediate.  Slots
/// hold operand value numbers for ALU ops, and (object id, version) pairs
/// for the state loads, so a store to a field/array retires prior loads.
using ExprKey = std::tuple<std::uint8_t, std::uint64_t, std::uint64_t,
                           std::uint64_t, Word>;

}  // namespace

std::size_t run_cse(Program& program, const PassContext& ctx) {
  std::vector<std::uint32_t> vn(kTempCount, kZeroVn);
  // Per-value-number over-approximation of the possibly-set bits, used to
  // gate store-to-load forwarding on width masks and array bounds.
  std::vector<Word> vnbits{0};
  std::uint32_t next_vn = kZeroVn + 1;
  for (std::size_t t = 0; t < kTempCount; ++t) {
    if (ctx.dirty_on_entry.test(t)) {
      vn[t] = next_vn++;
      vnbits.push_back(~Word{0});
    }
  }

  // holder[v]: the earliest temp still holding value v (validity checked
  // against vn[], since the temp may have been redefined since).
  std::unordered_map<std::uint32_t, TempId> holder;
  auto holder_of = [&](std::uint32_t v) -> std::optional<TempId> {
    const auto it = holder.find(v);
    if (it != holder.end() && vn[it->second] == v) return it->second;
    return std::nullopt;
  };
  auto claim = [&](std::uint32_t v, TempId t) {
    if (!holder_of(v)) holder[v] = t;
  };

  std::array<std::uint32_t, p4sim::kFieldCount> field_ver{};
  std::unordered_map<p4sim::RegisterId, std::uint32_t> reg_ver;

  auto width_mask = [](std::uint32_t bits) {
    return bits >= 64 ? ~Word{0} : (Word{1} << bits) - 1;
  };
  auto bits_of = [&](const Instruction& ins) -> Word {
    if (op_info(ins.op).shape == p4sim::OpShape::kCompare) return 1;
    switch (ins.op) {
      case Op::kConst: return ins.imm;
      case Op::kLoadField:
        return width_mask(p4sim::field_info(ins.field).width_bits);
      case Op::kLoadReg:
        if (ctx.registers != nullptr &&
            ins.reg < ctx.registers->array_count()) {
          return width_mask(
              std::min(ctx.registers->info(ins.reg).width_bits, 64u));
        }
        return ~Word{0};
      case Op::kAnd: return vnbits[vn[ins.a]] & vnbits[vn[ins.b]];
      case Op::kOr:
      case Op::kXor: return vnbits[vn[ins.a]] | vnbits[vn[ins.b]];
      case Op::kSelect: return vnbits[vn[ins.b]] | vnbits[vn[ins.c]];
      default: return ~Word{0};
    }
  };

  std::map<ExprKey, std::uint32_t> exprs;
  // Reading an untouched temp and `kConst 0` are the same value.
  exprs[{static_cast<std::uint8_t>(Op::kConst), 0, 0, 0, Word{0}}] = kZeroVn;

  auto make_key = [&](const Instruction& ins) -> ExprKey {
    const auto op = static_cast<std::uint8_t>(ins.op);
    switch (ins.op) {
      case Op::kLoadField:
        return {op, static_cast<std::uint64_t>(ins.field),
                field_ver[static_cast<std::size_t>(ins.field)], 0, 0};
      case Op::kLoadReg:
        return {op, ins.reg, vn[ins.a], reg_ver[ins.reg], 0};
      default: {  // kConst, kParam and the pure ops other than kMov
        const OpInfo& info = op_info(ins.op);
        std::uint64_t x = info.reads_a ? vn[ins.a] : 0;
        std::uint64_t y = info.reads_b ? vn[ins.b] : 0;
        if (info.commutative && y < x) std::swap(x, y);
        return {op, x, y, info.reads_c ? vn[ins.c] : 0,
                info.uses_imm ? ins.imm : 0};
      }
    }
  };

  std::size_t rewrites = 0;
  for (Instruction& slot : program.code) {
    const Instruction orig = slot;
    Instruction ins = slot;
    const OpInfo& info = op_info(ins.op);

    // Canonicalize every read operand to the earliest live holder of its
    // value (subsumes copy propagation; makes duplicate expressions key
    // equal and later DCE able to drop the forwarding movs).
    auto canon = [&](TempId t) -> TempId {
      if (const auto h = holder_of(vn[t]); h && *h != t) return *h;
      return t;
    };
    if (info.reads_a) ins.a = canon(ins.a);
    if (info.reads_b) ins.b = canon(ins.b);
    if (info.reads_c) ins.c = canon(ins.c);
    if (info.reads_dst) ins.dst = canon(ins.dst);  // digest payload slot

    // Value-identity simplifications: operands with equal value numbers.
    if (info.pure()) {
      const bool ab_same = info.reads_b && vn[ins.a] == vn[ins.b];
      switch (ins.op) {
        case Op::kSub:
        case Op::kXor:
          if (ab_same) ins = make_const(ins.dst, 0);
          break;
        case Op::kEq:
        case Op::kLe:
        case Op::kGe:
          if (ab_same) ins = make_const(ins.dst, 1);
          break;
        case Op::kNe:
        case Op::kLt:
        case Op::kGt:
          if (ab_same) ins = make_const(ins.dst, 0);
          break;
        case Op::kAnd:
        case Op::kOr:
          if (ab_same) ins = make_mov(ins.dst, ins.a);
          break;
        case Op::kSelect:
          if (vn[ins.b] == vn[ins.c]) ins = make_mov(ins.dst, ins.b);
          break;
        default: break;
      }
    }

    if (ins.op == Op::kStoreField) {
      const p4sim::FieldInfo& fi = p4sim::field_info(ins.field);
      if (fi.writable) {
        const auto f = static_cast<std::size_t>(ins.field);
        ++field_ver[f];
        // Store-to-load forwarding: a later load sees vn[a] — but only when
        // the store provably round-trips: the field is unconditionally
        // present (a store to an absent header is a no-op, and a load then
        // returns 0, not the stored word) and the stored value already fits
        // the field width (set() truncates to width_bits).
        if (fi.always_valid &&
            (vnbits[vn[ins.a]] & ~width_mask(fi.width_bits)) == 0) {
          exprs[{static_cast<std::uint8_t>(Op::kLoadField),
                 static_cast<std::uint64_t>(ins.field), field_ver[f], 0, 0}] =
              vn[ins.a];
        }
      }
      // Stores to read-only fields are no-ops: no version bump, earlier
      // load keys stay valid.
    } else if (ins.op == Op::kStoreReg) {
      ++reg_ver[ins.reg];
      // Forward only when the RegisterFile semantics provably preserve the
      // word: value fits the declared cell width (writes mask) and the
      // index is provably in bounds (OOB writes drop, OOB reads return 0).
      if (ctx.registers != nullptr && ins.reg < ctx.registers->array_count()) {
        const p4sim::RegisterArrayInfo& arr = ctx.registers->info(ins.reg);
        const Word cell_mask = width_mask(std::min(arr.width_bits, 64u));
        if ((vnbits[vn[ins.b]] & ~cell_mask) == 0 &&
            vnbits[vn[ins.a]] < arr.size) {
          exprs[{static_cast<std::uint8_t>(Op::kLoadReg), ins.reg, vn[ins.a],
                 reg_ver[ins.reg], 0}] = vn[ins.b];
        }
      }
    } else if (ins.op == Op::kMov) {
      vn[ins.dst] = vn[ins.a];
      claim(vn[ins.dst], ins.dst);
    } else if (info.writes_dst) {
      const ExprKey key = make_key(ins);
      const auto it = exprs.find(key);
      std::uint32_t v = 0;
      if (it != exprs.end()) {
        v = it->second;
        if (const auto h = holder_of(v); h && *h != ins.dst) {
          // The value is already in h: recomputation becomes a copy (which
          // canonicalization retargets and DCE then removes).
          ins = make_mov(ins.dst, *h);
        }
      } else {
        v = next_vn++;
        vnbits.push_back(bits_of(ins));
        exprs.emplace(key, v);
      }
      vn[ins.dst] = v;
      claim(v, ins.dst);
    }

    if (!same_instruction(ins, orig)) ++rewrites;
    slot = ins;
  }
  return rewrites;
}

std::size_t run_dce(Program& program, const PassContext& ctx) {
  const std::vector<TempSet> after = liveness_after(program, ctx.live_out);
  std::vector<Instruction> out;
  out.reserve(program.code.size());
  std::size_t rewrites = 0;
  for (std::size_t i = 0; i < program.code.size(); ++i) {
    const Instruction& ins = program.code[i];
    const bool noop_mov = ins.op == Op::kMov && ins.a == ins.dst;
    // An op that writes a temp has no other effect (stores and digests
    // write none), so an unread dst makes it dead.
    const bool dead =
        op_info(ins.op).writes_dst && !after[i].test(ins.dst);
    if (noop_mov || dead) {
      ++rewrites;
      continue;
    }
    out.push_back(ins);
  }
  program.code = std::move(out);

  // Dead-temp compaction: renumber surviving temps onto a dense prefix.
  // Renaming preserves the def-before-use structure, so it is safe unless
  // a later stage reads this program's temps (live_out), or the program
  // reads temps before writing them AND an earlier stage may have left
  // values there (a renamed read-before-write temp could land on a dirty
  // slot and stop reading zero).
  const bool self_contained =
      collect_facts(program).upward_exposed.none() ||
      ctx.dirty_on_entry.none();
  if (ctx.live_out.none() && self_contained) {
    TempSet used;
    for (const Instruction& ins : program.code) {
      const OpInfo& info = op_info(ins.op);
      if (info.reads_a) used.set(ins.a);
      if (info.reads_b) used.set(ins.b);
      if (info.reads_c) used.set(ins.c);
      if (info.writes_dst || info.reads_dst) used.set(ins.dst);
    }
    std::vector<TempId> rename(kTempCount, 0);
    TempId next = 0;
    bool identity = true;
    for (std::size_t t = 0; t < kTempCount; ++t) {
      if (!used.test(t)) continue;
      rename[t] = next;
      if (next != t) identity = false;
      ++next;
    }
    if (!identity) {
      for (Instruction& ins : program.code) {
        const Instruction orig = ins;
        const OpInfo& info = op_info(ins.op);
        if (info.reads_a) ins.a = rename[ins.a];
        if (info.reads_b) ins.b = rename[ins.b];
        if (info.reads_c) ins.c = rename[ins.c];
        if (info.writes_dst || info.reads_dst) ins.dst = rename[ins.dst];
        if (!same_instruction(ins, orig)) ++rewrites;
      }
    }
  }
  return rewrites;
}

std::size_t run_strength_reduction(Program& program, const PassContext& ctx) {
  ConstLattice val = seed_lattice(ctx);

  // Fresh temps for materialized shift amounts: past both this program's
  // temps and anything a later stage reads (clobbering a live-out temp
  // would leak into the next stage).
  std::size_t fresh = collect_facts(program).max_temp_plus_one;
  for (std::size_t t = kTempCount; t-- > 0;) {
    if (ctx.live_out.test(t)) {
      fresh = std::max(fresh, t + 1);
      break;
    }
  }

  std::vector<Instruction> out;
  out.reserve(program.code.size());
  std::size_t rewrites = 0;
  for (const Instruction& orig : program.code) {
    Instruction ins = orig;
    if (ins.op == Op::kMul) {
      const std::optional<Word> va = val[ins.a];
      const std::optional<Word> vb = val[ins.b];
      // Put the constant (if any) on the b side for one rewrite path.
      TempId var_side = ins.a;
      std::optional<Word> k = vb;
      if (!k && va) {
        var_side = ins.b;
        k = va;
      }
      if (k && *k == 0) {
        ins = make_const(ins.dst, 0);
      } else if (k && *k == 1) {
        ins = make_mov(ins.dst, var_side);
      } else if (k && std::has_single_bit(*k) && fresh < kTempCount) {
        // x * 2^s == x << s under the same wrapping arithmetic.
        const auto shift_temp = static_cast<TempId>(fresh++);
        const Word shift = static_cast<Word>(std::countr_zero(*k));
        out.push_back(make_const(shift_temp, shift));
        val[shift_temp] = shift;
        Instruction shl;
        shl.op = Op::kShl;
        shl.dst = ins.dst;
        shl.a = var_side;
        shl.b = shift_temp;
        ins = shl;
      }
    }
    if (!same_instruction(ins, orig)) ++rewrites;
    update_lattice(ins, val);
    out.push_back(ins);
  }
  program.code = std::move(out);
  return rewrites;
}

std::size_t run_stage_packing(p4sim::P4Switch& sw,
                              const TargetProfile& profile) {
  const std::vector<p4sim::P4Switch::Stage>& pipe = sw.pipeline();
  if (pipe.size() < 2) return 0;

  std::vector<std::optional<ProgramFacts>> facts(sw.action_count());
  auto facts_of = [&](p4sim::ActionId id) -> const ProgramFacts& {
    if (!facts[id]) facts[id] = collect_facts(sw.action(id));
    return *facts[id];
  };
  auto guards_equal = [](const std::optional<Guard>& x,
                         const std::optional<Guard>& y) {
    if (x.has_value() != y.has_value()) return false;
    if (!x.has_value()) return true;
    return x->field == y->field && x->cmp == y->cmp && x->value == y->value;
  };

  std::vector<p4sim::P4Switch::Stage> out;
  out.reserve(pipe.size());
  std::size_t merges = 0;
  for (std::size_t i = 0; i < pipe.size();) {
    if (i + 1 < pipe.size()) {
      const p4sim::P4Switch::Stage& s1 = pipe[i];
      const p4sim::P4Switch::Stage& s2 = pipe[i + 1];
      if (s1.action && s2.action && guards_equal(s1.guard, s2.guard)) {
        const ProgramFacts& f1 = facts_of(*s1.action);
        const ProgramFacts& f2 = facts_of(*s2.action);
        // Unmerged, the second guard re-evaluates after the first program
        // ran; merging is only sound when the first program cannot change
        // the guard's field.
        const bool guard_stable =
            !s1.guard ||
            !f1.fields_written.test(static_cast<std::size_t>(s1.guard->field));
        const p4sim::Program& p1 = sw.action(*s1.action);
        const p4sim::Program& p2 = sw.action(*s2.action);
        const bool fits =
            p1.code.size() + p2.code.size() <= profile.max_instructions;
        if (guard_stable && !f1.registers_conflict(f2) && fits) {
          // Concatenation is bit-exact: stages already share the packet's
          // temp context and direct stages run with empty action data, so
          // A;B in one stage executes the identical instruction stream.
          p4sim::Program merged;
          merged.name = p1.name + "+" + p2.name;
          merged.code = p1.code;
          merged.code.insert(merged.code.end(), p2.code.begin(),
                             p2.code.end());
          const p4sim::ActionId mid = sw.add_action(std::move(merged));
          p4sim::P4Switch::Stage st;
          st.guard = s1.guard;
          st.action = mid;
          out.push_back(st);
          ++merges;
          i += 2;
          continue;
        }
      }
    }
    out.push_back(pipe[i]);
    ++i;
  }
  if (merges != 0) sw.set_pipeline(std::move(out));
  return merges;
}

}  // namespace analysis
