// Seeded random straight-line IR generator for property tests.
//
// Produces well-formed p4sim action programs that exercise every opcode the
// optimizer and the symbolic executor model: wrapping arithmetic, masked
// shifts, bitwise logic, compares, select, field loads/stores (including
// read-only and validity-gated fields), register loads/stores against
// mixed-width arrays with both in-bounds and out-of-bounds indices, hash
// externs, and conditional digests.  The same seed always yields the same
// program, so a failing fuzz case is reproducible from its seed alone.
//
// Deliberate stress choices:
//   - a small temp pool, so defs overwrite earlier defs (non-SSA reuse —
//     the shape CSE/DCE versioning must track);
//   - register arrays of 64/32/8-bit cells, so store-to-load forwarding is
//     only sound where the value provably fits the cell width;
//   - constant register indices drawn from [0, size+2), so some stores and
//     loads fall out of bounds (writes drop, reads return 0);
//   - constants biased toward masks, powers of two, and boundary values;
//   - optionally (IrGenOptions::guarded_block_percent), guarded blocks: a
//     condition, then a chain of pure ops whose result only the condition's
//     consumer reads — a select's true arm, an `and` with the condition, or
//     a digest payload — the shape the threaded tier skips while the
//     condition is zero.  Chain temps come mostly from 16 temps above
//     temp_pool that ordinary instructions never touch, so no action reads
//     them before writing and their defs stay skippable; temp_pool + 16
//     and + 17 hold the second condition and its data word in blocks that
//     rewrite the first condition.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "p4sim/action.hpp"
#include "p4sim/parser.hpp"
#include "p4sim/register_file.hpp"

namespace test_support {

struct IrGenOptions {
  std::size_t min_instructions = 8;
  std::size_t max_instructions = 48;
  /// Temps are drawn from [0, temp_pool) — small, to force reuse.
  p4sim::TempId temp_pool = 24;
  /// Action-data words the program may read via kParam.
  std::size_t action_params = 4;
  bool allow_mul = true;
  bool allow_fields = true;
  bool allow_digests = true;
  /// Percent of generation steps that emit a guarded block instead of one
  /// instruction; 0 leaves every seed's program unchanged.
  unsigned guarded_block_percent = 0;
};

/// Declares the generator's register arrays into `rf` and returns their
/// ids.  Mixed sizes and widths: narrow cells stress value masking, small
/// arrays stress out-of-bounds index handling.
inline std::vector<p4sim::RegisterId> declare_gen_registers(
    p4sim::RegisterFile& rf) {
  return {rf.declare("gen_wide", 8, 64), rf.declare("gen_mid", 16, 32),
          rf.declare("gen_narrow", 4, 8)};
}

/// Deterministic random program over the given register arrays.
inline p4sim::Program random_program(std::uint64_t seed,
                                     const p4sim::RegisterFile& rf,
                                     const std::vector<p4sim::RegisterId>& regs,
                                     const IrGenOptions& opt = {}) {
  using p4sim::FieldRef;
  using p4sim::Instruction;
  using p4sim::Op;
  using p4sim::TempId;
  using p4sim::Word;

  std::mt19937_64 rng(seed);
  const auto pick = [&](std::uint64_t n) {
    return static_cast<std::uint64_t>(rng() % n);
  };
  const auto temp = [&] { return static_cast<TempId>(pick(opt.temp_pool)); };
  const auto biased_const = [&]() -> Word {
    switch (pick(8)) {
      case 0: return 0;
      case 1: return 1;
      case 2: return pick(8);                          // small
      case 3: return (Word{1} << pick(64)) - 1;        // low mask
      case 4: return Word{1} << pick(64);              // power of two
      case 5: return ~Word{0};
      case 6: return ~Word{0} - pick(8);               // near the top
      default: return rng();
    }
  };

  p4sim::Program p;
  p.name = "gen" + std::to_string(seed);
  const std::size_t count =
      opt.min_instructions +
      pick(opt.max_instructions - opt.min_instructions + 1);
  static constexpr Op kCompares[] = {Op::kEq, Op::kNe, Op::kLt,
                                     Op::kGt, Op::kLe, Op::kGe};
  const auto guarded_block = [&] {
    // Now and then the block folds its condition into a second one, then
    // rewrites the first mid-chain by an unguarded def that the rest of the
    // chain reads: a skip on the first condition must still test its first
    // value.  The second condition ands in an action-data word defined
    // before the first, and the first is also stored, so the chain is
    // guarded by the first condition rather than by the data word.
    const bool rewrite = pick(4) == 0;
    const auto store = [&](TempId v) {
      if (!opt.allow_fields) return;
      p.code.push_back(
          Instruction{Op::kStoreField, 0, v, 0, 0, 0,
                      static_cast<FieldRef>(pick(p4sim::kFieldCount))});
    };
    const auto data_word = static_cast<TempId>(opt.temp_pool + 17);
    if (rewrite) {
      p.code.push_back(
          Instruction{Op::kParam, data_word, 0, 0, 0, pick(opt.action_params)});
    }
    // The condition: a compare, an `and` or an action-data word.
    const TempId g = temp();
    Instruction cond{Op::kAnd, g, temp(), temp()};
    switch (pick(3)) {
      case 0: cond.op = kCompares[pick(6)]; break;
      case 1: break;
      default:
        cond.op = Op::kParam;
        cond.imm = pick(opt.action_params + 1);
        break;
    }
    p.code.push_back(cond);
    if (rewrite) store(g);
    static constexpr Op kChain[] = {Op::kAdd, Op::kSub,    Op::kXor, Op::kOr,
                                    Op::kAnd, Op::kShl,    Op::kShr, Op::kMul,
                                    Op::kLt,  Op::kSelect, Op::kHash1};
    const auto chain_temp = [&] {
      return pick(8) == 0 ? temp()
                          : static_cast<TempId>(opt.temp_pool + pick(16));
    };
    const auto extend = [&](TempId prev, std::size_t len) {
      for (; len > 0; --len) {
        Instruction ins{kChain[pick(std::size(kChain))], chain_temp(), prev,
                        temp(), temp()};
        if (ins.op == Op::kMul && !opt.allow_mul) ins.op = Op::kAdd;
        // Now and then the chain overwrites its condition (temp reuse).
        while (ins.dst == g && pick(8) != 0) ins.dst = chain_temp();
        p.code.push_back(ins);
        prev = ins.dst;
      }
      return prev;
    };
    const auto chain = [&](std::size_t len) { return extend(temp(), len); };
    TempId prev = chain(6 + pick(10));
    TempId guard = g;
    if (rewrite) {
      guard = static_cast<TempId>(opt.temp_pool + 16);
      p.code.push_back(Instruction{Op::kAnd, guard, g, data_word});
      p.code.push_back(Instruction{kCompares[pick(6)], g, temp(), temp()});
      store(g);
      const TempId next = chain_temp();
      p.code.push_back(Instruction{Op::kAdd, next, prev, g});
      prev = extend(next, pick(4));
    }
    // Half the selects get a chain of their own on the false arm — work
    // that must run exactly when the condition is zero.
    const TempId other = pick(2) == 0 ? chain(2 + pick(8)) : temp();
    Instruction use{Op::kSelect, temp(), guard, prev, other};
    switch (pick(3)) {
      case 0: break;
      case 1:
        use.op = Op::kAnd;
        break;
      default:
        if (!opt.allow_digests) break;
        use = Instruction{Op::kDigest, temp(), prev, temp(), guard, pick(4)};
        break;
    }
    p.code.push_back(use);
    // Half the selects and ands export their result (a digest conditioned
    // on the result itself), so a wrong skip shows in the digest stream.
    if (use.op != Op::kDigest && opt.allow_digests && pick(2) == 0) {
      p.code.push_back(
          Instruction{Op::kDigest, use.dst, use.dst, use.dst, use.dst, 4});
    }
  };
  while (p.code.size() < count) {
    if (opt.guarded_block_percent != 0 &&
        pick(100) < opt.guarded_block_percent) {
      guarded_block();
      continue;
    }
    Instruction ins;
    ins.dst = temp();
    ins.a = temp();
    ins.b = temp();
    ins.c = temp();
    switch (pick(20)) {
      case 0:
      case 1:
        ins.op = Op::kConst;
        ins.imm = biased_const();
        break;
      case 2:
        ins.op = Op::kParam;
        ins.imm = pick(opt.action_params + 1);  // may read past the vector
        break;
      case 3:
        ins.op = Op::kAdd;
        break;
      case 4:
        ins.op = Op::kSub;
        break;
      case 5:
        ins.op = opt.allow_mul ? Op::kMul : Op::kAdd;
        break;
      case 6:
        ins.op = pick(2) != 0 ? Op::kShl : Op::kShr;
        break;
      case 7:
        ins.op = Op::kAnd;
        break;
      case 8:
        ins.op = Op::kOr;
        break;
      case 9:
        ins.op = pick(2) != 0 ? Op::kXor : Op::kNot;
        break;
      case 10:
        ins.op = kCompares[pick(6)];
        break;
      case 11:
        ins.op = Op::kSelect;
        break;
      case 12:
        ins.op = Op::kMov;
        break;
      case 13:
      case 14:
        if (!opt.allow_fields) continue;
        ins.op = pick(3) != 0 ? Op::kLoadField : Op::kStoreField;
        ins.field = static_cast<FieldRef>(pick(p4sim::kFieldCount));
        break;
      case 15:
      case 16:
      case 17: {
        const p4sim::RegisterId r = regs[pick(regs.size())];
        ins.reg = r;
        ins.op = pick(2) != 0 ? Op::kLoadReg : Op::kStoreReg;
        if (pick(2) != 0) {
          // Constant index, possibly just past the end of the array.
          const Word idx = pick(rf.info(r).size + 2);
          p.code.push_back(Instruction{Op::kConst, ins.a, 0, 0, 0, idx,
                                       FieldRef::kEthType, 0});
        }
        break;
      }
      case 18:
        ins.op = pick(2) != 0 ? Op::kHash1 : Op::kHash2;
        break;
      default:
        if (!opt.allow_digests || pick(3) != 0) continue;
        ins.op = Op::kDigest;
        ins.imm = pick(4);  // digest id
        break;
    }
    p.code.push_back(ins);
  }
  return p;
}

}  // namespace test_support
