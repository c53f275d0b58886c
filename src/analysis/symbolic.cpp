#include "analysis/symbolic.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <string>
#include <utility>

#include "analysis/dataflow.hpp"
#include "stat4/sparse_freq.hpp"

namespace analysis::sym {

using p4sim::FieldInfo;
using p4sim::FieldRef;
using p4sim::Instruction;
using p4sim::Op;
using p4sim::Program;

namespace {

constexpr NodeId kZero = 0;  // Dag() interns constant 0 first
constexpr Word kAllOnes = ~Word{0};

/// Sets every bit at or below the operand's highest set bit, so the mask
/// read as a number stays an upper bound on any value bounded by `m`.
constexpr Word smear(Word m) {
  m |= m >> 1;
  m |= m >> 2;
  m |= m >> 4;
  m |= m >> 8;
  m |= m >> 16;
  m |= m >> 32;
  return m;
}

constexpr Word width_mask(std::uint32_t bits) {
  return bits >= 64 ? kAllOnes : (Word{1} << bits) - 1;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

void append_u32(std::string& key, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) key.push_back(static_cast<char>(v >> (8 * i)));
}

void append_u64(std::string& key, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) key.push_back(static_cast<char>(v >> (8 * i)));
}

}  // namespace

std::string VarRef::name() const {
  switch (origin) {
    case Origin::kDirtyTemp: return "t" + std::to_string(index);
    case Origin::kParam: return "param" + std::to_string(index);
    case Origin::kField:
      return p4sim::field_info(static_cast<FieldRef>(index)).name;
    case Origin::kValidity:
      return p4sim::field_info(static_cast<FieldRef>(index)).name;
  }
  return "?";
}

Dag::Dag() {
  const NodeId zero = constant(0);
  (void)zero;
  assert(zero == kZero);
}

NodeId Dag::intern(Node n) {
  std::string key;
  key.reserve(16 + 12 * n.ops.size());
  key.push_back(static_cast<char>(n.kind));
  append_u32(key, n.aux);
  append_u64(key, n.imm);
  for (const NodeId op : n.ops) append_u32(key, op);
  for (const Word c : n.coeffs) append_u64(key, c);
  const auto [it, inserted] =
      interned_.emplace(std::move(key), static_cast<NodeId>(nodes_.size()));
  if (inserted) nodes_.push_back(std::move(n));
  return it->second;
}

NodeId Dag::constant(Word v) {
  Node n;
  n.kind = Kind::kConst;
  n.imm = v;
  n.bits = v;
  return intern(std::move(n));
}

NodeId Dag::variable(VarRef ref) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(ref.origin) << 32) | ref.index;
  if (const auto it = var_index_.find(key); it != var_index_.end()) {
    Node n;
    n.kind = Kind::kVar;
    n.aux = it->second;
    n.bits = vars_[it->second].mask;
    return intern(std::move(n));
  }
  if (ref.mask == 0) return kZero;  // a variable that can only be 0
  const auto idx = static_cast<std::uint32_t>(vars_.size());
  vars_.push_back(ref);
  var_index_.emplace(key, idx);
  Node n;
  n.kind = Kind::kVar;
  n.aux = idx;
  n.bits = ref.mask;
  return intern(std::move(n));
}

void Dag::decompose(NodeId id, Word scale, Word& c0,
                    std::vector<std::pair<Word, NodeId>>& terms) const {
  if (scale == 0) return;
  const Node& n = nodes_[id];
  if (n.kind == Kind::kConst) {
    c0 += scale * n.imm;
    return;
  }
  if (n.kind == Kind::kLinear) {
    c0 += scale * n.imm;
    for (std::size_t i = 0; i < n.ops.size(); ++i) {
      terms.emplace_back(scale * n.coeffs[i], n.ops[i]);
    }
    return;
  }
  terms.emplace_back(scale, id);
}

NodeId Dag::linear(Word c0, std::vector<std::pair<Word, NodeId>> terms) {
  std::sort(terms.begin(), terms.end(),
            [](const auto& x, const auto& y) { return x.second < y.second; });
  std::vector<std::pair<Word, NodeId>> merged;
  merged.reserve(terms.size());
  for (const auto& [k, t] : terms) {
    if (!merged.empty() && merged.back().second == t) {
      merged.back().first += k;
    } else {
      merged.emplace_back(k, t);
    }
  }
  std::erase_if(merged, [](const auto& kt) { return kt.first == 0; });
  if (merged.empty()) return constant(c0);
  if (c0 == 0 && merged.size() == 1 && merged[0].first == 1) {
    return merged[0].second;
  }

  Node n;
  n.kind = Kind::kLinear;
  n.imm = c0;
  n.ops.reserve(merged.size());
  n.coeffs.reserve(merged.size());
  Word max = c0;
  bool bounded = true;
  for (const auto& [k, t] : merged) {
    n.ops.push_back(t);
    n.coeffs.push_back(k);
    Word prod = 0;
    if (bounded && (__builtin_mul_overflow(k, nodes_[t].bits, &prod) ||
                    __builtin_add_overflow(max, prod, &max))) {
      bounded = false;  // the sum can wrap: no useful bound
    }
  }
  // Divisibility survives wrapping: if every term (and the constant) is a
  // multiple of 2^z, so is the sum mod 2^64 — which proves the low z bits
  // zero even when the magnitude bound above is useless.  This is what
  // lets the precision pass see that (x << s) >> s divides exactly.
  unsigned tz = c0 == 0 ? 64 : static_cast<unsigned>(std::countr_zero(c0));
  for (std::size_t i = 0; i < n.ops.size() && tz > 0; ++i) {
    const Word tb = nodes_[n.ops[i]].bits;
    const unsigned term_tz =
        static_cast<unsigned>(std::countr_zero(n.coeffs[i])) +
        (tb == 0 ? 64u : static_cast<unsigned>(std::countr_zero(tb)));
    tz = std::min(tz, term_tz);
  }
  n.bits = bounded ? smear(max) : kAllOnes;
  n.bits &= tz >= 64 ? Word{0} : ~((Word{1} << tz) - 1);
  return intern(std::move(n));
}

NodeId Dag::scaled(NodeId a, Word k) {
  if (k == 0) return kZero;
  if (k == 1) return a;
  Word c0 = 0;
  std::vector<std::pair<Word, NodeId>> terms;
  decompose(a, k, c0, terms);
  return linear(c0, std::move(terms));
}

NodeId Dag::add(NodeId a, NodeId b) {
  Word c0 = 0;
  std::vector<std::pair<Word, NodeId>> terms;
  decompose(a, 1, c0, terms);
  decompose(b, 1, c0, terms);
  return linear(c0, std::move(terms));
}

NodeId Dag::sub(NodeId a, NodeId b) {
  Word c0 = 0;
  std::vector<std::pair<Word, NodeId>> terms;
  decompose(a, 1, c0, terms);
  decompose(b, ~Word{0}, c0, terms);  // scale by -1 (mod 2^64)
  return linear(c0, std::move(terms));
}

NodeId Dag::mul(NodeId a, NodeId b) {
  const Node& na = nodes_[a];
  const Node& nb = nodes_[b];
  if (na.kind == Kind::kConst) return scaled(b, na.imm);
  if (nb.kind == Kind::kConst) return scaled(a, nb.imm);

  Node n;
  n.kind = Kind::kMul;
  auto flatten = [this, &n](NodeId x) {
    const Node& nx = nodes_[x];
    if (nx.kind == Kind::kMul) {
      n.ops.insert(n.ops.end(), nx.ops.begin(), nx.ops.end());
    } else {
      n.ops.push_back(x);
    }
  };
  flatten(a);
  flatten(b);
  std::sort(n.ops.begin(), n.ops.end());
  Word max = 1;
  bool bounded = true;
  for (const NodeId t : n.ops) {
    if (__builtin_mul_overflow(max, nodes_[t].bits, &max)) {
      bounded = false;
      break;
    }
  }
  n.bits = bounded ? smear(max) : kAllOnes;
  return intern(std::move(n));
}

NodeId Dag::band(NodeId a, NodeId b) {
  Word imm = kAllOnes;
  std::vector<NodeId> ops;
  auto collect = [this, &imm, &ops](NodeId x) {
    const Node& nx = nodes_[x];
    if (nx.kind == Kind::kConst) {
      imm &= nx.imm;
    } else if (nx.kind == Kind::kAnd) {
      imm &= nx.imm;
      ops.insert(ops.end(), nx.ops.begin(), nx.ops.end());
    } else {
      ops.push_back(x);
    }
  };
  collect(a);
  collect(b);
  if (imm == 0) return kZero;
  std::sort(ops.begin(), ops.end());
  ops.erase(std::unique(ops.begin(), ops.end()), ops.end());
  Word opbits = kAllOnes;
  for (const NodeId t : ops) opbits &= nodes_[t].bits;
  // The constant conjunct is redundant once it covers every bit the
  // variable part can set (x & m == x) — the AND-elimination that
  // discharges `hash & (size-1)` style masking proofs.
  if ((opbits & ~imm) == 0) imm = kAllOnes;
  if (ops.empty()) return constant(imm);
  if (ops.size() == 1 && imm == kAllOnes) return ops[0];
  Node n;
  n.kind = Kind::kAnd;
  n.imm = imm;
  n.ops = std::move(ops);
  n.bits = imm & opbits;
  return intern(std::move(n));
}

NodeId Dag::bor(NodeId a, NodeId b) {
  Word imm = 0;
  std::vector<NodeId> ops;
  auto collect = [this, &imm, &ops](NodeId x) {
    const Node& nx = nodes_[x];
    if (nx.kind == Kind::kConst) {
      imm |= nx.imm;
    } else if (nx.kind == Kind::kOr) {
      imm |= nx.imm;
      ops.insert(ops.end(), nx.ops.begin(), nx.ops.end());
    } else {
      ops.push_back(x);
    }
  };
  collect(a);
  collect(b);
  if (imm == kAllOnes) return constant(kAllOnes);
  std::sort(ops.begin(), ops.end());
  ops.erase(std::unique(ops.begin(), ops.end()), ops.end());
  // x | m == m when every possibly-set bit of x is already in m.
  std::erase_if(ops,
                [this, imm](NodeId t) { return (nodes_[t].bits & ~imm) == 0; });
  if (ops.empty()) return constant(imm);
  if (ops.size() == 1 && imm == 0) return ops[0];
  Word opbits = 0;
  for (const NodeId t : ops) opbits |= nodes_[t].bits;
  Node n;
  n.kind = Kind::kOr;
  n.imm = imm;
  n.ops = std::move(ops);
  n.bits = imm | opbits;
  return intern(std::move(n));
}

NodeId Dag::bxor(NodeId a, NodeId b) {
  Word imm = 0;
  std::vector<NodeId> ops;
  auto collect = [this, &imm, &ops](NodeId x) {
    const Node& nx = nodes_[x];
    if (nx.kind == Kind::kConst) {
      imm ^= nx.imm;
    } else if (nx.kind == Kind::kXor) {
      imm ^= nx.imm;
      ops.insert(ops.end(), nx.ops.begin(), nx.ops.end());
    } else {
      ops.push_back(x);
    }
  };
  collect(a);
  collect(b);
  std::sort(ops.begin(), ops.end());
  // Equal operands cancel in pairs: x ^ x == 0.
  std::vector<NodeId> kept;
  kept.reserve(ops.size());
  for (std::size_t i = 0; i < ops.size();) {
    if (i + 1 < ops.size() && ops[i] == ops[i + 1]) {
      i += 2;
    } else {
      kept.push_back(ops[i]);
      ++i;
    }
  }
  if (kept.empty()) return constant(imm);
  if (kept.size() == 1 && imm == 0) return kept[0];
  Word opbits = 0;
  for (const NodeId t : kept) opbits |= nodes_[t].bits;
  Node n;
  n.kind = Kind::kXor;
  n.imm = imm;
  n.ops = std::move(kept);
  n.bits = imm | opbits;
  return intern(std::move(n));
}

NodeId Dag::bnot(NodeId a) { return bxor(a, constant(kAllOnes)); }

NodeId Dag::shl(NodeId a, NodeId b) {
  const Node& nb = nodes_[b];
  if (nb.kind == Kind::kConst) {
    const Word s = nb.imm & 63;
    if (s == 0) return a;
    return scaled(a, Word{1} << s);  // x << s == x * 2^s (mod 2^64)
  }
  if (a == kZero) return kZero;
  const NodeId amount = band(b, constant(63));
  if (nodes_[amount].kind == Kind::kConst) return shl(a, amount);
  Node n;
  n.kind = Kind::kShl;
  n.ops = {a, amount};
  n.bits = nodes_[a].bits == 0 ? 0 : kAllOnes;
  return intern(std::move(n));
}

NodeId Dag::shr(NodeId a, NodeId b) {
  const Node& nb = nodes_[b];
  if (nb.kind == Kind::kConst) {
    const Word s = nb.imm & 63;
    if (s == 0) return a;
    const Node& na = nodes_[a];
    if (na.kind == Kind::kConst) return constant(na.imm >> s);
    if ((na.bits >> s) == 0) return kZero;
    Node n;
    n.kind = Kind::kShr;
    n.ops = {a, constant(s)};  // amount normalized to s & 63
    n.bits = na.bits >> s;
    return intern(std::move(n));
  }
  if (a == kZero) return kZero;
  const NodeId amount = band(b, constant(63));
  if (nodes_[amount].kind == Kind::kConst) return shr(a, amount);
  Node n;
  n.kind = Kind::kShr;
  n.ops = {a, amount};
  n.bits = smear(nodes_[a].bits);
  return intern(std::move(n));
}

NodeId Dag::eq(NodeId a, NodeId b) {
  if (a == b) return constant(1);
  const Node& na = nodes_[a];
  const Node& nb = nodes_[b];
  if (na.kind == Kind::kConst && nb.kind == Kind::kConst) {
    return constant(na.imm == nb.imm ? 1 : 0);
  }
  // A constant with a bit the other side can never set disproves equality.
  if (na.kind == Kind::kConst && (na.imm & ~nb.bits) != 0) return kZero;
  if (nb.kind == Kind::kConst && (nb.imm & ~na.bits) != 0) return kZero;
  // The linear normal form of the difference catches x+1 == 1+x shapes.
  const NodeId d = sub(a, b);
  if (nodes_[d].kind == Kind::kConst) {
    return constant(nodes_[d].imm == 0 ? 1 : 0);
  }
  Node n;
  n.kind = Kind::kEq;
  n.ops = {std::min(a, b), std::max(a, b)};
  n.bits = 1;
  return intern(std::move(n));
}

NodeId Dag::ne(NodeId a, NodeId b) { return bxor(eq(a, b), constant(1)); }

NodeId Dag::lt(NodeId a, NodeId b) {
  if (a == b) return kZero;
  const Node& na = nodes_[a];
  const Node& nb = nodes_[b];
  if (na.kind == Kind::kConst && nb.kind == Kind::kConst) {
    return constant(na.imm < nb.imm ? 1 : 0);
  }
  if (nb.kind == Kind::kConst) {
    if (nb.imm == 0) return kZero;           // nothing is < 0 unsigned
    if (na.bits < nb.imm) return constant(1);  // max(a) < b
  }
  if (na.kind == Kind::kConst && na.imm >= nb.bits) return kZero;  // a >= max(b)
  Node n;
  n.kind = Kind::kLt;
  n.ops = {a, b};
  n.bits = 1;
  return intern(std::move(n));
}

NodeId Dag::le(NodeId a, NodeId b) {
  if (a == b) return constant(1);
  const Node& na = nodes_[a];
  const Node& nb = nodes_[b];
  if (na.kind == Kind::kConst && nb.kind == Kind::kConst) {
    return constant(na.imm <= nb.imm ? 1 : 0);
  }
  if (na.kind == Kind::kConst) {
    if (na.imm == 0) return constant(1);       // 0 <= everything
    if (na.imm > nb.bits) return kZero;        // a > max(b)
  }
  if (nb.kind == Kind::kConst && na.bits <= nb.imm) return constant(1);
  Node n;
  n.kind = Kind::kLe;
  n.ops = {a, b};
  n.bits = 1;
  return intern(std::move(n));
}

NodeId Dag::ite(NodeId c, NodeId t, NodeId e) {
  if (t == e) return t;
  const Node& nc = nodes_[c];
  if (nc.kind == Kind::kConst) return nc.imm != 0 ? t : e;
  // Nested selects on the same condition collapse: the inner branch the
  // outer condition excludes can never be taken.
  if (nodes_[t].kind == Kind::kIte && nodes_[t].ops[0] == c) {
    t = nodes_[t].ops[1];
  }
  if (nodes_[e].kind == Kind::kIte && nodes_[e].ops[0] == c) {
    e = nodes_[e].ops[2];
  }
  if (t == e) return t;
  // select(c, 1, 0) of a 0/1 condition is the condition itself.
  if (nc.bits == 1 && nodes_[t].kind == Kind::kConst && nodes_[t].imm == 1 &&
      e == kZero) {
    return c;
  }
  Node n;
  n.kind = Kind::kIte;
  n.ops = {c, t, e};
  n.bits = nodes_[t].bits | nodes_[e].bits;
  return intern(std::move(n));
}

NodeId Dag::hash1(NodeId a) {
  const Node& na = nodes_[a];
  if (na.kind == Kind::kConst) return constant(stat4::sparse_hash1(na.imm));
  Node n;
  n.kind = Kind::kHash1;
  n.ops = {a};
  return intern(std::move(n));
}

NodeId Dag::hash2(NodeId a) {
  const Node& na = nodes_[a];
  if (na.kind == Kind::kConst) return constant(stat4::sparse_hash2(na.imm));
  Node n;
  n.kind = Kind::kHash2;
  n.ops = {a};
  return intern(std::move(n));
}

NodeId Dag::reg_init(std::uint32_t reg, NodeId idx, Word mask) {
  if (mask == 0) return kZero;
  Node n;
  n.kind = Kind::kRegInit;
  n.aux = reg;
  n.imm = mask;
  n.ops = {idx};
  n.bits = mask;
  return intern(std::move(n));
}

NodeId Dag::truthy(NodeId a) {
  const Node& na = nodes_[a];
  if (na.kind == Kind::kConst) return constant(na.imm != 0 ? 1 : 0);
  if (na.bits <= 1) return a;  // already 0/1-valued
  return ne(a, kZero);
}

std::string Dag::render(NodeId id, std::size_t max_depth) const {
  const Node& n = nodes_[id];
  auto hex = [](Word v) {
    if (v <= 9) return std::to_string(v);
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
  };
  if (max_depth == 0) return "...";
  auto child = [this, max_depth](NodeId c) { return render(c, max_depth - 1); };
  switch (n.kind) {
    case Kind::kConst: return hex(n.imm);
    case Kind::kVar: return vars_[n.aux].name();
    case Kind::kLinear: {
      std::string out = "(+ " + hex(n.imm);
      for (std::size_t i = 0; i < n.ops.size(); ++i) {
        out += " (* " + hex(n.coeffs[i]) + " " + child(n.ops[i]) + ")";
      }
      return out + ")";
    }
    case Kind::kMul:
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kXor: {
      const char* op = n.kind == Kind::kMul  ? "*"
                       : n.kind == Kind::kAnd ? "&"
                       : n.kind == Kind::kOr  ? "|"
                                              : "^";
      std::string out = "(" + std::string(op);
      const bool has_imm = (n.kind == Kind::kAnd && n.imm != kAllOnes) ||
                           (n.kind != Kind::kAnd && n.kind != Kind::kMul &&
                            n.imm != 0);
      if (has_imm) out += " " + hex(n.imm);
      for (const NodeId op_id : n.ops) out += " " + child(op_id);
      return out + ")";
    }
    case Kind::kShl: return "(<< " + child(n.ops[0]) + " " + child(n.ops[1]) + ")";
    case Kind::kShr: return "(>> " + child(n.ops[0]) + " " + child(n.ops[1]) + ")";
    case Kind::kEq: return "(== " + child(n.ops[0]) + " " + child(n.ops[1]) + ")";
    case Kind::kLt: return "(< " + child(n.ops[0]) + " " + child(n.ops[1]) + ")";
    case Kind::kLe: return "(<= " + child(n.ops[0]) + " " + child(n.ops[1]) + ")";
    case Kind::kIte:
      return "(if " + child(n.ops[0]) + " " + child(n.ops[1]) + " " +
             child(n.ops[2]) + ")";
    case Kind::kHash1: return "(hash1 " + child(n.ops[0]) + ")";
    case Kind::kHash2: return "(hash2 " + child(n.ops[0]) + ")";
    case Kind::kRegInit:
      return "(reg" + std::to_string(n.aux) + "0 " + child(n.ops[0]) + ")";
  }
  return "?";
}

// ---- concrete valuation ----------------------------------------------------

namespace {

std::uint64_t var_key(const VarRef& ref) {
  return (static_cast<std::uint64_t>(ref.origin) << 32) | ref.index;
}

/// Seeded value with a bias toward collision-friendly shapes: small values
/// and near-mask values show up often enough that index equality, boundary
/// wraps, and guard flips all get exercised within a few thousand samples.
Word shaped_value(std::uint64_t raw, Word mask) {
  switch (raw & 3) {
    case 0: return (raw >> 2) & 0x7 & mask;
    case 1: return (mask - ((raw >> 2) & 0x3)) & mask;
    default: return (raw >> 2) & mask;
  }
}

}  // namespace

Word Valuation::var_value(const VarRef& ref) const {
  const std::uint64_t key = var_key(ref);
  if (const auto it = vars_.find(key); it != vars_.end()) {
    return it->second.second;
  }
  const Word v = shaped_value(splitmix64(seed_ ^ splitmix64(key)), ref.mask);
  vars_.emplace(key, std::make_pair(ref, v));
  return v;
}

Word Valuation::reg_value(std::uint32_t reg, Word index, Word mask) const {
  const std::uint64_t key =
      splitmix64((static_cast<std::uint64_t>(reg) << 48) ^ index ^
                 0xA5A5'0000'0000'0000ull);
  if (const auto it = regs_.find(key); it != regs_.end()) {
    return it->second.value;
  }
  const Word v = shaped_value(splitmix64(seed_ ^ key), mask);
  regs_.emplace(key, RegCell{reg, index, v});
  return v;
}

void Valuation::pin_var(VarRef ref, Word value) {
  vars_[var_key(ref)] = {ref, value & ref.mask};
}

void Valuation::pin_reg(std::uint32_t reg, Word index, Word value) {
  const std::uint64_t key =
      splitmix64((static_cast<std::uint64_t>(reg) << 48) ^ index ^
                 0xA5A5'0000'0000'0000ull);
  regs_[key] = RegCell{reg, index, value};
}

std::vector<std::pair<VarRef, Word>> Valuation::used_vars() const {
  std::vector<std::pair<VarRef, Word>> out;
  out.reserve(vars_.size());
  for (const auto& [key, entry] : vars_) out.push_back(entry);
  std::sort(out.begin(), out.end(), [](const auto& x, const auto& y) {
    return var_key(x.first) < var_key(y.first);
  });
  return out;
}

std::vector<Valuation::RegCell> Valuation::used_regs() const {
  std::vector<RegCell> out;
  out.reserve(regs_.size());
  for (const auto& [key, cell] : regs_) out.push_back(cell);
  std::sort(out.begin(), out.end(), [](const RegCell& x, const RegCell& y) {
    return std::make_pair(x.reg, x.index) < std::make_pair(y.reg, y.index);
  });
  return out;
}

Word evaluate(const Dag& dag, NodeId id, const Valuation& val,
              std::vector<std::optional<Word>>& cache) {
  if (cache.size() < dag.size()) cache.resize(dag.size());
  if (cache[id]) return *cache[id];
  const Node& n = dag.node(id);
  auto ev = [&dag, &val, &cache](NodeId c) {
    return evaluate(dag, c, val, cache);
  };
  Word out = 0;
  switch (n.kind) {
    case Kind::kConst: out = n.imm; break;
    case Kind::kVar: out = val.var_value(dag.variables()[n.aux]); break;
    case Kind::kLinear: {
      out = n.imm;
      for (std::size_t i = 0; i < n.ops.size(); ++i) {
        out += n.coeffs[i] * ev(n.ops[i]);
      }
      break;
    }
    case Kind::kMul: {
      out = 1;
      for (const NodeId t : n.ops) out *= ev(t);
      break;
    }
    case Kind::kAnd: {
      out = n.imm;
      for (const NodeId t : n.ops) out &= ev(t);
      break;
    }
    case Kind::kOr: {
      out = n.imm;
      for (const NodeId t : n.ops) out |= ev(t);
      break;
    }
    case Kind::kXor: {
      out = n.imm;
      for (const NodeId t : n.ops) out ^= ev(t);
      break;
    }
    case Kind::kShl: out = ev(n.ops[0]) << (ev(n.ops[1]) & 63); break;
    case Kind::kShr: out = ev(n.ops[0]) >> (ev(n.ops[1]) & 63); break;
    case Kind::kEq: out = ev(n.ops[0]) == ev(n.ops[1]) ? 1 : 0; break;
    case Kind::kLt: out = ev(n.ops[0]) < ev(n.ops[1]) ? 1 : 0; break;
    case Kind::kLe: out = ev(n.ops[0]) <= ev(n.ops[1]) ? 1 : 0; break;
    case Kind::kIte:
      out = ev(n.ops[0]) != 0 ? ev(n.ops[1]) : ev(n.ops[2]);
      break;
    case Kind::kHash1: out = stat4::sparse_hash1(ev(n.ops[0])); break;
    case Kind::kHash2: out = stat4::sparse_hash2(ev(n.ops[0])); break;
    case Kind::kRegInit: out = val.reg_value(n.aux, ev(n.ops[0]), n.imm); break;
  }
  cache[id] = out;
  return out;
}

// ---- symbolic execution ----------------------------------------------------

const std::vector<RegStore>* SymState::stores_for(p4sim::RegisterId reg) const {
  for (const auto& [r, seq] : stores) {
    if (r == reg) return &seq;
  }
  return nullptr;
}

namespace {

struct RegModel {
  bool bounded = false;
  Word size = 0;
  Word mask = kAllOnes;
};

RegModel model_of(const SymEnv& env, p4sim::RegisterId reg) {
  if (env.registers == nullptr || reg >= env.registers->array_count()) {
    return {};  // unbounded width-64 model
  }
  const p4sim::RegisterArrayInfo& info = env.registers->info(reg);
  return {true, info.size, width_mask(std::min(info.width_bits, 64u))};
}

std::vector<RegStore>& stores_for_mut(SymState& st, p4sim::RegisterId reg) {
  for (auto& [r, seq] : st.stores) {
    if (r == reg) return seq;
  }
  st.stores.emplace_back(reg, std::vector<RegStore>{});
  return st.stores.back().second;
}

NodeId initial_field(Dag& dag, FieldRef f) {
  const FieldInfo& fi = p4sim::field_info(f);
  const auto idx = static_cast<std::uint32_t>(f);
  if (fi.is_validity) {
    return dag.variable({VarRef::Origin::kValidity, idx, 1});
  }
  const Word mask = width_mask(fi.width_bits);
  const NodeId raw = dag.variable({VarRef::Origin::kField, idx, mask});
  if (fi.always_valid) return raw;
  const NodeId valid = dag.variable(
      {VarRef::Origin::kValidity, static_cast<std::uint32_t>(fi.validity), 1});
  return dag.ite(valid, raw, dag.constant(0));
}

}  // namespace

SymState sym_execute(const Program& program, Dag& dag, const SymEnv& env) {
  SymState st;
  st.temps.resize(p4sim::kTempCount);
  for (std::size_t t = 0; t < p4sim::kTempCount; ++t) {
    st.temps[t] =
        env.dirty_on_entry.test(t)
            ? dag.variable({VarRef::Origin::kDirtyTemp,
                            static_cast<std::uint32_t>(t), kAllOnes})
            : kZero;
  }
  st.fields.resize(p4sim::kFieldCount);
  for (std::size_t f = 0; f < p4sim::kFieldCount; ++f) {
    st.fields[f] = initial_field(dag, static_cast<FieldRef>(f));
  }
  sym_execute_onto(program, dag, env, st);
  return st;
}

void sym_execute_onto(const Program& program, Dag& dag, const SymEnv& env,
                      SymState& st) {
  std::vector<NodeId>& t = st.temps;
  for (const Instruction& ins : program.code) {
    switch (ins.op) {
      case Op::kConst: t[ins.dst] = dag.constant(ins.imm); break;
      case Op::kParam:
        // Missing action-data words read 0 — subsumed by the free variable.
        t[ins.dst] = dag.variable({VarRef::Origin::kParam,
                                   static_cast<std::uint32_t>(ins.imm),
                                   kAllOnes});
        break;
      case Op::kMov: t[ins.dst] = t[ins.a]; break;
      case Op::kAdd: t[ins.dst] = dag.add(t[ins.a], t[ins.b]); break;
      case Op::kSub: t[ins.dst] = dag.sub(t[ins.a], t[ins.b]); break;
      case Op::kMul: t[ins.dst] = dag.mul(t[ins.a], t[ins.b]); break;
      case Op::kShl: t[ins.dst] = dag.shl(t[ins.a], t[ins.b]); break;
      case Op::kShr: t[ins.dst] = dag.shr(t[ins.a], t[ins.b]); break;
      case Op::kAnd: t[ins.dst] = dag.band(t[ins.a], t[ins.b]); break;
      case Op::kOr: t[ins.dst] = dag.bor(t[ins.a], t[ins.b]); break;
      case Op::kXor: t[ins.dst] = dag.bxor(t[ins.a], t[ins.b]); break;
      case Op::kNot: t[ins.dst] = dag.bnot(t[ins.a]); break;
      case Op::kEq: t[ins.dst] = dag.eq(t[ins.a], t[ins.b]); break;
      case Op::kNe: t[ins.dst] = dag.ne(t[ins.a], t[ins.b]); break;
      case Op::kLt: t[ins.dst] = dag.lt(t[ins.a], t[ins.b]); break;
      case Op::kGt: t[ins.dst] = dag.gt(t[ins.a], t[ins.b]); break;
      case Op::kLe: t[ins.dst] = dag.le(t[ins.a], t[ins.b]); break;
      case Op::kGe: t[ins.dst] = dag.ge(t[ins.a], t[ins.b]); break;
      case Op::kSelect:
        t[ins.dst] = dag.ite(dag.truthy(t[ins.a]), t[ins.b], t[ins.c]);
        break;
      case Op::kLoadField:
        t[ins.dst] = st.fields[static_cast<std::size_t>(ins.field)];
        break;
      case Op::kStoreField: {
        const FieldInfo& fi = p4sim::field_info(ins.field);
        if (!fi.writable) break;  // PacketView::set no-op
        const NodeId v =
            dag.band(t[ins.a], dag.constant(width_mask(fi.width_bits)));
        NodeId& slot = st.fields[static_cast<std::size_t>(ins.field)];
        if (fi.always_valid) {
          slot = v;
        } else {
          const NodeId valid = dag.variable(
              {VarRef::Origin::kValidity,
               static_cast<std::uint32_t>(fi.validity), 1});
          slot = dag.ite(valid, v, slot);
        }
        break;
      }
      case Op::kLoadReg: {
        const RegModel m = model_of(env, ins.reg);
        const NodeId idx = t[ins.a];
        NodeId chain = dag.reg_init(ins.reg, idx, m.mask);
        if (const std::vector<RegStore>* seq = st.stores_for(ins.reg)) {
          for (const RegStore& s : *seq) {
            chain = dag.ite(dag.eq(s.index, idx), s.value, chain);
          }
        }
        if (m.bounded) {
          chain = dag.ite(dag.lt(idx, dag.constant(m.size)), chain,
                          dag.constant(0));
        }
        t[ins.dst] = chain;
        break;
      }
      case Op::kStoreReg: {
        const RegModel m = model_of(env, ins.reg);
        // Record the width-masked value; bounds drop is resolved at reads
        // and in the final-state comparison (an OOB index never matches an
        // in-bounds read, and the final-state map applies the bound).
        stores_for_mut(st, ins.reg)
            .push_back({t[ins.a], dag.band(t[ins.b], dag.constant(m.mask))});
        break;
      }
      case Op::kHash1: t[ins.dst] = dag.hash1(t[ins.a]); break;
      case Op::kHash2: t[ins.dst] = dag.hash2(t[ins.a]); break;
      case Op::kDigest:
        st.digests.push_back({static_cast<std::uint32_t>(ins.imm),
                              dag.truthy(t[ins.c]), t[ins.a], t[ins.b],
                              t[ins.dst]});
        break;
    }
    if (env.dst_bits != nullptr) {
      env.dst_bits->push_back(p4sim::op_info(ins.op).writes_dst
                                  ? dag.node(t[ins.dst]).bits
                                  : kAllOnes);
    }
  }
}

}  // namespace analysis::sym
