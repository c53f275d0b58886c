// Unsigned interval domain of the overflow and precision passes.
//
// Bounds are 128-bit so the analysis tracks the IDEAL (un-wrapped) value of
// every expression: the simulator's 64-bit words wrap like P4 `bit<64>`, and
// the whole point of the pass is to detect when the ideal value of an
// accumulator or product exceeds the width it is stored into.  Operations
// are inclusion-isotonic (wider inputs give wider outputs), which makes the
// fixpoint iteration (fixpoint.hpp) monotone.
//
// Wrap-aware special case: once a value has been widened to the full 64-bit
// range because of a possible wrap (e.g. an unprovable guarded subtraction),
// further arithmetic on it stays within [0, 2^64-1] — modular semantics —
// instead of accumulating fictitious >2^64 bounds.  Genuine overflows are
// found on properly-bounded sub-64-bit intervals that grow past the width.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "p4sim/op_table.hpp"

namespace analysis {

// __extension__ keeps -Wpedantic quiet about the GCC/Clang 128-bit type.
__extension__ typedef unsigned __int128 U128;

inline constexpr U128 kMax64 = (static_cast<U128>(1) << 64) - 1;
/// Saturation ceiling: bounds never exceed this, so interval arithmetic on
/// U128 itself cannot overflow (2^96 leaves 32 bits of headroom over any
/// 64x64 product... products saturate here too).
inline constexpr U128 kInf = ~static_cast<U128>(0);

[[nodiscard]] constexpr U128 sat_add(U128 a, U128 b) noexcept {
  return a > kInf - b ? kInf : a + b;
}
[[nodiscard]] constexpr U128 sat_mul(U128 a, U128 b) noexcept {
  if (a == 0 || b == 0) return 0;
  return a > kInf / b ? kInf : a * b;
}
[[nodiscard]] constexpr U128 sat_shl(U128 a, unsigned s) noexcept {
  if (a == 0) return 0;
  if (s >= 128) return kInf;
  return a > (kInf >> s) ? kInf : a << s;
}

/// Number of bits needed to represent v (bit length; 0 for v == 0).
[[nodiscard]] constexpr unsigned bit_length(U128 v) noexcept {
  unsigned n = 0;
  while (v != 0) {
    v >>= 1;
    ++n;
  }
  return n;
}

struct Interval {
  U128 lo = 0;
  U128 hi = 0;

  [[nodiscard]] static constexpr Interval constant(U128 v) noexcept {
    return {v, v};
  }
  /// Full range of a w-bit value.
  [[nodiscard]] static constexpr Interval width(unsigned w) noexcept {
    return {0, w >= 64 ? kMax64 : (static_cast<U128>(1) << w) - 1};
  }
  [[nodiscard]] static constexpr Interval top64() noexcept {
    return {0, kMax64};
  }

  /// Exactly the full modular 64-bit range — the "wrapped / unknown word"
  /// value.  An IDEAL bound that merely exceeds 2^64-1 (hi > kMax64) is NOT
  /// top64: it is a genuine overflow the pass must keep visible.
  [[nodiscard]] constexpr bool is_top64() const noexcept {
    return lo == 0 && hi == kMax64;
  }
  [[nodiscard]] constexpr bool constant_value(U128* v) const noexcept {
    if (lo != hi) return false;
    *v = lo;
    return true;
  }
  [[nodiscard]] constexpr bool operator==(const Interval& o) const noexcept {
    return lo == o.lo && hi == o.hi;
  }
  /// Does every value fit in `w` bits (no truncation on store)?
  [[nodiscard]] constexpr bool fits(unsigned w) const noexcept {
    return hi <= Interval::width(w).hi;
  }
};

[[nodiscard]] constexpr Interval join(const Interval& a,
                                      const Interval& b) noexcept {
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

// ---- transfer functions -----------------------------------------------------
// Each returns the ideal-value interval; `wrapped` (when present) is set to
// true when the modular 64-bit result can differ from the ideal result (the
// caller turns that into a diagnostic).

[[nodiscard]] constexpr Interval iv_add(const Interval& a, const Interval& b,
                                        bool* overflow64) noexcept {
  if (a.is_top64() || b.is_top64()) return Interval::top64();
  const Interval r{sat_add(a.lo, b.lo), sat_add(a.hi, b.hi)};
  if (r.hi > kMax64) *overflow64 = true;
  return r;
}

[[nodiscard]] constexpr Interval iv_sub(const Interval& a, const Interval& b,
                                        bool* may_wrap) noexcept {
  if (a.is_top64() || b.is_top64()) return Interval::top64();
  if (a.lo < b.hi) {
    // Cannot prove the ideal difference stays non-negative: the 64-bit
    // result wraps into the full range.
    *may_wrap = true;
    return Interval::top64();
  }
  return {a.lo - b.hi, a.hi - b.lo};
}

[[nodiscard]] constexpr Interval iv_mul(const Interval& a, const Interval& b,
                                        bool* overflow64) noexcept {
  U128 bc = 0;
  // Multiplying by a provable 0 or 1 is exact even on a top interval.
  if ((a.constant_value(&bc) || b.constant_value(&bc)) && bc <= 1) {
    const Interval& other = (a.lo == bc && a.hi == bc) ? b : a;
    return bc == 0 ? Interval::constant(0) : other;
  }
  if (a.is_top64() || b.is_top64()) return Interval::top64();
  const Interval r{sat_mul(a.lo, b.lo), sat_mul(a.hi, b.hi)};
  if (r.hi > kMax64) *overflow64 = true;
  return r;
}

/// Shift amount is masked to 6 bits, exactly like the executor's `& 63`.
[[nodiscard]] constexpr Interval iv_shift_amount(const Interval& b) noexcept {
  if (b.hi <= 63) return b;
  return {0, 63};
}

[[nodiscard]] constexpr Interval iv_shl(const Interval& a, const Interval& b,
                                        bool* overflow64) noexcept {
  if (a.is_top64()) return Interval::top64();
  const Interval s = iv_shift_amount(b);
  const Interval r{sat_shl(a.lo, static_cast<unsigned>(s.lo)),
                   sat_shl(a.hi, static_cast<unsigned>(s.hi))};
  if (r.hi > kMax64) *overflow64 = true;
  return r;
}

[[nodiscard]] constexpr Interval iv_shr(const Interval& a,
                                        const Interval& b) noexcept {
  const Interval s = iv_shift_amount(b);
  return {a.lo >> static_cast<unsigned>(s.hi),
          a.hi >> static_cast<unsigned>(s.lo)};
}

[[nodiscard]] constexpr Interval iv_and(const Interval& a,
                                        const Interval& b) noexcept {
  U128 av = 0;
  U128 bv = 0;
  if (a.constant_value(&av) && b.constant_value(&bv)) {
    return Interval::constant(av & bv);
  }
  // x & y <= min(x, y) for non-negative values; lo is 0 in general.
  return {0, std::min(a.hi, b.hi)};
}

[[nodiscard]] constexpr Interval iv_or(const Interval& a,
                                       const Interval& b) noexcept {
  // x | y never exceeds the next all-ones value at the wider bit length.
  const unsigned bits = std::max(bit_length(a.hi), bit_length(b.hi));
  const U128 ceiling = bits >= 128 ? kInf : (static_cast<U128>(1) << bits) - 1;
  return {std::max(a.lo, b.lo), ceiling};
}

[[nodiscard]] constexpr Interval iv_xor(const Interval& a,
                                        const Interval& b) noexcept {
  const unsigned bits = std::max(bit_length(a.hi), bit_length(b.hi));
  const U128 ceiling = bits >= 128 ? kInf : (static_cast<U128>(1) << bits) - 1;
  return {0, ceiling};
}

[[nodiscard]] constexpr Interval iv_not(const Interval& a) noexcept {
  if (a.hi > kMax64) return Interval::top64();
  return {kMax64 - a.hi, kMax64 - a.lo};
}

/// Comparison result: [1,1] / [0,0] when provable, else [0,1].
[[nodiscard]] constexpr Interval iv_bool(bool provably_true,
                                         bool provably_false) noexcept {
  if (provably_true) return Interval::constant(1);
  if (provably_false) return Interval::constant(0);
  return {0, 1};
}

[[nodiscard]] constexpr Interval iv_lt(const Interval& a,
                                       const Interval& b) noexcept {
  return iv_bool(a.hi < b.lo, a.lo >= b.hi);
}
[[nodiscard]] constexpr Interval iv_le(const Interval& a,
                                       const Interval& b) noexcept {
  return iv_bool(a.hi <= b.lo, a.lo > b.hi);
}
[[nodiscard]] constexpr Interval iv_eq(const Interval& a,
                                       const Interval& b) noexcept {
  return iv_bool(a.lo == a.hi && b.lo == b.hi && a.lo == b.lo,
                 a.hi < b.lo || b.hi < a.lo);
}

[[nodiscard]] constexpr Interval iv_select(const Interval& cond,
                                           const Interval& t,
                                           const Interval& f) noexcept {
  if (cond.lo > 0) return t;          // provably non-zero
  if (cond.hi == 0) return f;         // provably zero
  return join(t, f);
}

/// Interval of an ALU op (kAdd through kSelect) over its operand intervals
/// `a`, `b` and, for kSelect, the false arm `c`.  Sets *overflow64 when an
/// add/mul/shl can pass 2^64-1 and *may_wrap when a sub may go below zero.
/// Any other op gives the full word: the passes model those themselves.
[[nodiscard]] constexpr Interval iv_alu(p4sim::Op op, const Interval& a,
                                        const Interval& b, const Interval& c,
                                        bool* overflow64,
                                        bool* may_wrap) noexcept {
  using p4sim::Op;
  switch (op) {
    case Op::kAdd: return iv_add(a, b, overflow64);
    case Op::kSub: return iv_sub(a, b, may_wrap);
    case Op::kMul: return iv_mul(a, b, overflow64);
    case Op::kShl: return iv_shl(a, b, overflow64);
    case Op::kShr: return iv_shr(a, b);
    case Op::kAnd: return iv_and(a, b);
    case Op::kOr: return iv_or(a, b);
    case Op::kXor: return iv_xor(a, b);
    case Op::kNot: return iv_not(a);
    case Op::kEq: return iv_eq(a, b);
    case Op::kNe: {
      const Interval e = iv_eq(a, b);
      return iv_bool(e.hi == 0, e.lo == 1);
    }
    case Op::kLt: return iv_lt(a, b);
    case Op::kGt: return iv_lt(b, a);
    case Op::kLe: return iv_le(a, b);
    case Op::kGe: return iv_le(b, a);
    case Op::kSelect: return iv_select(a, b, c);
    default: return Interval::top64();
  }
}

/// Clamps a bound to the 64-bit word for display.
[[nodiscard]] inline std::uint64_t clamp_u64(U128 v) noexcept {
  return v > kMax64 ? ~std::uint64_t{0} : static_cast<std::uint64_t>(v);
}

/// Exact decimal rendering of a U128.
[[nodiscard]] inline std::string u128_str(U128 v) {
  if (v == 0) return "0";
  std::string s;
  while (v != 0) {
    s += static_cast<char>('0' + static_cast<unsigned>(v % 10));
    v /= 10;
  }
  std::reverse(s.begin(), s.end());
  return s;
}

}  // namespace analysis
