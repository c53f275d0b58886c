// Unit coverage of the dataflow pass framework (src/analysis/dataflow.hpp,
// passes.hpp, pass_manager.hpp): per-pass rewrites checked structurally AND
// by executing the program before/after on the same inputs, plus the
// framework-level properties the optimizer guarantees — idempotence (a
// second run is a no-op), post-optimization verifier cleanliness over every
// catalog app, and fast-path recompilation after in-place rewrites.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "p4sim/craft.hpp"
#include "p4sim/p4sim.hpp"

namespace {

using analysis::PassContext;
using analysis::PassManagerOptions;
using p4sim::ipv4;
using p4sim::Op;
using p4sim::Program;
using p4sim::ProgramBuilder;
using p4sim::RegisterFile;
using p4sim::TempId;
using p4sim::Word;

std::size_t count_op(const Program& p, Op op) {
  return static_cast<std::size_t>(
      std::count_if(p.code.begin(), p.code.end(),
                    [op](const p4sim::Instruction& i) { return i.op == op; }));
}

/// Runs a (field-free) program against a fresh register file.
void run(const Program& p, RegisterFile& rf,
         std::vector<Word> action_data = {}) {
  p4sim::ExecutionContext ctx;
  ctx.registers = &rf;
  ctx.action_data = action_data;
  p4sim::execute(p, ctx);
}

// ---- dataflow analyses ----------------------------------------------------

TEST(Dataflow, DigestReadsItsPayloadSlots) {
  const p4sim::OpInfo& info = p4sim::op_info(Op::kDigest);
  EXPECT_TRUE(info.reads_a);
  EXPECT_TRUE(info.reads_b);
  EXPECT_TRUE(info.reads_c);
  EXPECT_TRUE(info.reads_dst);  // payload word, not a definition
  EXPECT_FALSE(info.writes_dst);
  EXPECT_EQ(info.effect, p4sim::OpEffect::kDigest);
}

TEST(Dataflow, ParamIsNotPure) {
  EXPECT_FALSE(p4sim::op_info(Op::kParam).pure());
  EXPECT_TRUE(p4sim::op_info(Op::kHash1).pure());
  EXPECT_FALSE(p4sim::op_info(Op::kHash1).alu);  // an extern, never constant
}

TEST(Dataflow, CollectFactsTracksUpwardExposure) {
  RegisterFile rf;
  const auto r = rf.declare("r", 4);
  ProgramBuilder b("facts");
  const TempId idx = b.konst(0);
  const TempId v = b.load_reg(r, idx);
  b.store_reg(r, idx, v);
  Program p = b.take();
  // An extra read of a temp never written: upward-exposed.
  p.code.push_back(analysis::make_mov(100, 50));

  const analysis::ProgramFacts f = analysis::collect_facts(p);
  EXPECT_TRUE(f.written.test(idx));
  EXPECT_FALSE(f.upward_exposed.test(idx));
  EXPECT_TRUE(f.upward_exposed.test(50));
  EXPECT_TRUE(f.written.test(100));
  EXPECT_TRUE(f.touches_register(r));
  EXPECT_EQ(f.max_temp_plus_one, 101u);
}

/// One register cell of the all-ops program: `op` applied to operands that
/// are action params except in the slots `const_mask` names (bit 0 = a,
/// 1 = b, 2 = c), which hold the compile-time constants `k`.
struct OpCell {
  Op op;
  unsigned const_mask;
  std::array<Word, 3> k;
};

TEST(Dataflow, FoldMatchesExecuteExactly) {
  // The semantics every tier and folder shares, pinned by hand so that a
  // wrong p4sim::eval cannot pass by agreeing with itself.
  const auto ev = [](Op op, Word a, Word b, Word c = 0) {
    return p4sim::eval(op, 0, a, b, c);
  };
  const Word x = 0x123456789abcdef0ULL;
  EXPECT_EQ(ev(Op::kShl, x, 64), x);  // shift amounts are taken & 63
  EXPECT_EQ(ev(Op::kShr, 1, 65), 0u);
  EXPECT_EQ(ev(Op::kSub, 0, 1), ~Word{0});  // wrapping u64
  EXPECT_EQ(ev(Op::kLt, ~Word{0}, 0), 0u);  // unsigned compare
  EXPECT_EQ(ev(Op::kMul, Word{1} << 63, 2), 0u);
  EXPECT_EQ(ev(Op::kSelect, 5, 11, 13), 11u);

  // Every pure op on every tier, with each operand arriving either as an
  // action param (unknown when the action is lowered) or as a kConst (which
  // drives the threaded tier's folds and immediate forms).  All cells live
  // in one program so the native tier compiles once.
  const std::vector<Word> values = {0,  1,  2,        5,
                                    63, 64, 65,       ~Word{0},
                                    Word{1} << 63,    x};
  std::vector<Op> ops;
  for (const p4sim::OpInfo& info : p4sim::kOpTable) {
    if (info.pure() && info.op != Op::kConst) ops.push_back(info.op);
  }
  ASSERT_EQ(ops.size(), 19u);

  std::vector<OpCell> cells;
  for (const Op op : ops) cells.push_back({op, 0, {}});
  for (const unsigned slot : {0u, 1u, 2u}) {
    for (const Word v : values) {
      std::array<Word, 3> k{};
      k[slot] = v;
      for (const Op op : ops) cells.push_back({op, 1u << slot, k});
    }
  }
  // All-constant cells fold away on the threaded tier; a smaller grid keeps
  // the native tier's compile short.
  const Word corners[] = {0, 1, 2, 65, ~Word{0}, Word{1} << 63};
  for (const Word a : corners) {
    for (const Word b : corners) {
      for (const Op op : ops) cells.push_back({op, 7, {a, b, 7}});
    }
  }

  // t0..t2 = params, t3..t5 = constants, t6 = result, t7 = cell index.
  Program prog;
  prog.name = "all_ops";
  const auto push = [&](Op op, TempId dst, TempId a, TempId b, TempId c,
                        Word imm, p4sim::RegisterId reg) {
    p4sim::Instruction ins;
    ins.op = op;
    ins.dst = dst;
    ins.a = a;
    ins.b = b;
    ins.c = c;
    ins.imm = imm;
    ins.reg = reg;
    prog.code.push_back(ins);
  };
  for (TempId s = 0; s < 3; ++s) push(Op::kParam, s, 0, 0, 0, s, 0);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const OpCell& cell = cells[i];
    std::array<TempId, 3> in{0, 1, 2};
    for (TempId s = 0; s < 3; ++s) {
      if (((cell.const_mask >> s) & 1U) != 0) {
        in[s] = static_cast<TempId>(3 + s);
        push(Op::kConst, in[s], 0, 0, 0, cell.k[s], 0);
      }
    }
    push(cell.op, 6, in[0], in[1], in[2], 0, 0);
    push(Op::kConst, 7, 0, 0, 0, i, 0);
    push(Op::kStoreReg, 0, 7, 6, 0, 0, /*reg=*/0);
  }

  for (const p4sim::ExecTier tier :
       {p4sim::ExecTier::kThreaded, p4sim::ExecTier::kNative}) {
    p4sim::P4Switch sw("fold", p4sim::AluProfile{true, prog.code.size()});
    const auto out = sw.declare_register(
        "out", static_cast<std::uint32_t>(cells.size()));
    ASSERT_EQ(out, 0u);
    const auto action = sw.add_action(prog);
    const auto table = sw.add_table(
        "t", {p4sim::KeySpec{p4sim::FieldRef::kIpv4Dst,
                             p4sim::MatchKind::kExact}});
    sw.add_table_stage(table);
    sw.set_exec_tier(tier);
    for (const Word pa : values) {
      for (const Word pb : values) {
        const Word pc = pa ^ ~pb;
        sw.table(table).set_default_action(action, {pa, pb, pc});
        (void)sw.process(p4sim::make_udp_packet(ipv4(1, 1, 1, 1),
                                                ipv4(10, 0, 0, 1), 1, 2));
        if (sw.active_tier() != tier) {
          ASSERT_EQ(tier, p4sim::ExecTier::kNative);
          GTEST_LOG_(INFO) << "no host compiler; native tier not checked";
          break;
        }
        for (std::size_t i = 0; i < cells.size(); ++i) {
          const OpCell& cell = cells[i];
          const auto arg = [&](unsigned s, Word param) {
            return ((cell.const_mask >> s) & 1U) != 0 ? cell.k[s] : param;
          };
          ASSERT_EQ(sw.registers().read(out, i),
                    ev(cell.op, arg(0, pa), arg(1, pb), arg(2, pc)))
              << p4sim::to_string(tier) << ' '
              << p4sim::op_info(cell.op).name << " const_mask "
              << cell.const_mask << " params " << pa << ", " << pb << ", "
              << pc;
        }
      }
      if (sw.active_tier() != tier) break;
    }
  }
}

TEST(Dataflow, FoldRefusesStatefulOps) {
  // The folders only evaluate pure ops; loads and params read state.
  EXPECT_FALSE(p4sim::op_info(Op::kLoadReg).pure());
  EXPECT_FALSE(p4sim::op_info(Op::kLoadField).pure());
  EXPECT_FALSE(p4sim::op_info(Op::kParam).pure());
}

// ---- constant propagation -------------------------------------------------

TEST(ConstProp, FoldsConstantChainsThroughStores) {
  RegisterFile rf;
  const auto r = rf.declare("out", 4);
  ProgramBuilder b("chain");
  const TempId idx = b.konst(2);
  const TempId six = b.konst(6);
  const TempId seven = b.konst(7);
  const TempId sum = b.add(six, seven);
  const TempId doubled = b.shl(sum, b.konst(1));
  b.store_reg(r, idx, doubled);
  Program p = b.take();

  const auto result = analysis::optimize_program(p);
  EXPECT_TRUE(result.fixpoint);
  EXPECT_EQ(count_op(p, Op::kAdd), 0u);
  EXPECT_EQ(count_op(p, Op::kShl), 0u);
  run(p, rf);
  EXPECT_EQ(rf.read(r, 2), 26u);
}

TEST(ConstProp, LowersSelectWithKnownCondition) {
  RegisterFile rf;
  const auto r = rf.declare("out", 4);
  ProgramBuilder b("select");
  const TempId idx = b.konst(0);
  const TempId p0 = b.param(0);
  const TempId p1 = b.param(1);
  const TempId taken = b.select(b.konst(1), p0, p1);
  b.store_reg(r, idx, taken);
  Program p = b.take();

  (void)analysis::optimize_program(p);
  EXPECT_EQ(count_op(p, Op::kSelect), 0u);
  run(p, rf, {5, 9});
  EXPECT_EQ(rf.read(r, 0), 5u);
}

TEST(ConstProp, SimplifiesAlgebraicIdentities) {
  RegisterFile rf;
  const auto r = rf.declare("out", 4);
  ProgramBuilder b("identity");
  const TempId idx = b.konst(0);
  const TempId p0 = b.param(0);
  const TempId zero = b.konst(0);
  const TempId a = b.add(p0, zero);   // x + 0 -> x
  const TempId s = b.shl(a, zero);    // x << 0 -> x
  const TempId o = b.bor(s, zero);    // x | 0 -> x
  b.store_reg(r, idx, o);
  Program p = b.take();

  (void)analysis::optimize_program(p);
  EXPECT_EQ(count_op(p, Op::kAdd), 0u);
  EXPECT_EQ(count_op(p, Op::kShl), 0u);
  EXPECT_EQ(count_op(p, Op::kOr), 0u);
  run(p, rf, {41});
  EXPECT_EQ(rf.read(r, 0), 41u);
}

TEST(ConstProp, DropsDigestWithFalseConditionKeepsTrue) {
  ProgramBuilder b("digest");
  const TempId v = b.param(0);
  b.digest_if(b.konst(0), 1, v, v, v);  // provably never fires
  b.digest_if(b.konst(1), 2, v, v, v);  // provably always fires
  Program p = b.take();

  (void)analysis::optimize_program(p);
  EXPECT_EQ(count_op(p, Op::kDigest), 1u);

  RegisterFile rf;
  std::vector<p4sim::Digest> digests;
  p4sim::ExecutionContext ctx;
  ctx.registers = &rf;
  ctx.digests = &digests;
  const std::vector<Word> data = {77};
  ctx.action_data = data;
  p4sim::execute(p, ctx);
  ASSERT_EQ(digests.size(), 1u);
  EXPECT_EQ(digests[0].id, 2u);
  EXPECT_EQ(digests[0].payload[0], 77u);
}

// ---- common-subexpression elimination -------------------------------------

TEST(Cse, DeduplicatesRepeatedLoadsAndHashes) {
  RegisterFile rf;
  const auto r = rf.declare("in", 4);
  const auto out = rf.declare("out", 4);
  rf.write(r, 1, 21);
  ProgramBuilder b("dedup");
  const TempId idx = b.konst(1);
  const TempId a = b.load_reg(r, idx);
  const TempId bb = b.load_reg(r, idx);  // same array, same index, no store
  const TempId sum = b.add(a, bb);
  const TempId h1 = b.hash1(sum);
  const TempId h2 = b.hash1(sum);  // identical hash
  const TempId mix = b.bxor(h1, h2);  // x ^ x -> 0 once CSE unifies them
  b.store_reg(out, b.konst(0), mix);
  b.store_reg(out, idx, sum);
  Program p = b.take();

  (void)analysis::optimize_program(p);
  EXPECT_EQ(count_op(p, Op::kLoadReg), 1u);
  EXPECT_LE(count_op(p, Op::kHash1), 1u);
  run(p, rf);
  EXPECT_EQ(rf.read(out, 0), 0u);   // h ^ h
  EXPECT_EQ(rf.read(out, 1), 42u);  // 21 + 21
}

TEST(Cse, UnknownIndexStoreKillsLoadAvailability) {
  RegisterFile rf;
  const auto r = rf.declare("in", 8);
  const auto out = rf.declare("out", 4);
  ProgramBuilder b("kill");
  const TempId idx = b.konst(1);
  const TempId first = b.load_reg(r, idx);
  b.store_reg(r, b.param(0), b.param(1));  // may alias index 1
  const TempId second = b.load_reg(r, idx);
  b.store_reg(out, b.konst(0), b.add(first, second));
  Program p = b.take();

  (void)analysis::optimize_program(p);
  EXPECT_EQ(count_op(p, Op::kLoadReg), 2u);

  rf.write(r, 1, 10);
  run(p, rf, {1, 90});  // the store really does alias
  EXPECT_EQ(rf.read(out, 0), 100u);  // 10 + 90, not 10 + 10
}

TEST(Cse, ForwardsStoredValueToLoad) {
  RegisterFile rf;
  const auto r = rf.declare("in", 4);
  const auto out = rf.declare("out", 4);
  ProgramBuilder b("forward");
  const TempId idx = b.konst(3);
  const TempId v = b.param(0);
  b.store_reg(r, idx, v);
  const TempId back = b.load_reg(r, idx);  // must read what was stored
  b.store_reg(out, b.konst(0), back);
  Program p = b.take();

  // Store-to-load forwarding needs the register file: the forwarded value
  // must provably fit the declared cell width and the index must be in
  // bounds, or the load and the forwarded temp could disagree.
  (void)analysis::optimize_program(p, rf);
  EXPECT_EQ(count_op(p, Op::kLoadReg), 0u);
  run(p, rf, {123});
  EXPECT_EQ(rf.read(out, 0), 123u);
  EXPECT_EQ(rf.read(r, 3), 123u);  // the store itself survives
}

// ---- dead-code elimination ------------------------------------------------

TEST(Dce, RemovesDeadPureCodeKeepsEffects) {
  RegisterFile rf;
  const auto out = rf.declare("out", 4);
  ProgramBuilder b("dead");
  const TempId p0 = b.param(0);
  (void)b.mul(p0, p0);  // dead: result never used
  (void)b.hash2(p0);    // dead: pure extern
  b.store_reg(out, b.konst(0), p0);
  Program p = b.take();

  (void)analysis::optimize_program(p);
  EXPECT_EQ(count_op(p, Op::kMul), 0u);
  EXPECT_EQ(count_op(p, Op::kHash2), 0u);
  EXPECT_EQ(count_op(p, Op::kStoreReg), 1u);
}

TEST(Dce, LiveOutTempsSurvive) {
  ProgramBuilder b("liveout");
  const TempId p0 = b.param(0);
  const TempId doubled = b.add(p0, p0);  // only "used" by a later stage
  (void)doubled;
  Program p = b.take();

  PassContext ctx;
  ctx.live_out.set(doubled);
  const std::size_t removed = analysis::run_dce(p, ctx);
  EXPECT_EQ(removed, 0u);
  EXPECT_EQ(count_op(p, Op::kAdd), 1u);

  PassContext standalone;  // nothing live out: now it is dead
  (void)analysis::run_dce(p, standalone);
  EXPECT_EQ(count_op(p, Op::kAdd), 0u);
}

TEST(Dce, CompactsSurvivingTemps) {
  RegisterFile rf;
  const auto out = rf.declare("out", 4);
  ProgramBuilder b("compact");
  const TempId p0 = b.param(0);
  for (int i = 0; i < 20; ++i) (void)b.add(p0, p0);  // 20 dead temps
  b.store_reg(out, b.konst(0), p0);
  Program p = b.take();
  const std::size_t temps_before = analysis::collect_facts(p).max_temp_plus_one;

  (void)analysis::optimize_program(p);
  const std::size_t temps_after = analysis::collect_facts(p).max_temp_plus_one;
  EXPECT_LT(temps_after, temps_before);
  EXPECT_LE(temps_after, 3u);  // param, index, nothing else
  run(p, rf, {9});
  EXPECT_EQ(rf.read(out, 0), 9u);
}

// ---- strength reduction ---------------------------------------------------

TEST(Strength, MulByPowerOfTwoBecomesShift) {
  RegisterFile rf;
  const auto out = rf.declare("out", 4);
  ProgramBuilder b("mul8");
  const TempId p0 = b.param(0);
  const TempId k = b.konst(8);
  b.store_reg(out, b.konst(0), b.mul(p0, k));
  Program p = b.take();

  PassManagerOptions opt;
  opt.profile = analysis::TargetProfile::by_name("hardware-nomul");
  (void)analysis::optimize_program(p, opt);
  EXPECT_EQ(count_op(p, Op::kMul), 0u);
  EXPECT_GE(count_op(p, Op::kShl), 1u);

  // The de-multiplied program satisfies the no-mul target constraint.
  analysis::AnalysisOptions verify_opt;
  verify_opt.profile = analysis::TargetProfile::by_name("hardware-nomul");
  EXPECT_TRUE(analysis::verify_program(p, rf, verify_opt).ok());

  run(p, rf, {7});
  EXPECT_EQ(rf.read(out, 0), 56u);
}

TEST(Strength, MulByNonPowerOfTwoIsLeftAlone) {
  RegisterFile rf;
  const auto out = rf.declare("out", 4);
  ProgramBuilder b("mul6");
  b.store_reg(out, b.konst(0), b.mul(b.param(0), b.konst(6)));
  Program p = b.take();

  (void)analysis::optimize_program(p);
  EXPECT_EQ(count_op(p, Op::kMul), 1u);
  run(p, rf, {7});
  EXPECT_EQ(rf.read(out, 0), 42u);
}

// ---- stage packing --------------------------------------------------------

struct PackFixture {
  p4sim::P4Switch sw{"packable"};
  p4sim::RegisterId r1 = sw.declare_register("r1", 4);
  p4sim::RegisterId r2 = sw.declare_register("r2", 4);

  p4sim::ActionId counter_action(const std::string& name, p4sim::RegisterId r) {
    ProgramBuilder b(name);
    const TempId idx = b.konst(0);
    const TempId v = b.load_reg(r, idx);
    b.store_reg(r, idx, b.add(v, b.konst(1)));
    return sw.add_action(b.take());
  }
};

TEST(Pack, MergesRegisterDisjointAdjacentStages) {
  PackFixture fx;
  fx.sw.add_program_stage(fx.counter_action("bump1", fx.r1));
  fx.sw.add_program_stage(fx.counter_action("bump2", fx.r2));
  ASSERT_EQ(fx.sw.pipeline().size(), 2u);

  const auto result = analysis::optimize_switch(fx.sw);
  EXPECT_EQ(result.after.stages, 1u);
  EXPECT_EQ(fx.sw.pipeline().size(), 1u);

  // The merged stage still bumps both counters per packet.
  (void)fx.sw.process(p4sim::make_udp_packet(ipv4(1, 1, 1, 1),
                                             ipv4(10, 0, 0, 1), 1, 2));
  EXPECT_EQ(fx.sw.registers().read(fx.r1, 0), 1u);
  EXPECT_EQ(fx.sw.registers().read(fx.r2, 0), 1u);
}

TEST(Pack, RefusesRegisterConflict) {
  PackFixture fx;
  fx.sw.add_program_stage(fx.counter_action("bump_a", fx.r1));
  fx.sw.add_program_stage(fx.counter_action("bump_b", fx.r1));  // same array

  const std::size_t merges = analysis::run_stage_packing(
      fx.sw, analysis::TargetProfile::bmv2());
  EXPECT_EQ(merges, 0u);
  EXPECT_EQ(fx.sw.pipeline().size(), 2u);
}

TEST(Pack, RefusesGuardMismatchAndUnstableGuard) {
  PackFixture fx;
  p4sim::Guard g;
  g.field = p4sim::FieldRef::kIpv4Valid;
  g.cmp = p4sim::Guard::Cmp::kNe;
  g.value = 0;
  fx.sw.add_program_stage(fx.counter_action("guarded", fx.r1), g);
  fx.sw.add_program_stage(fx.counter_action("unguarded", fx.r2));

  EXPECT_EQ(analysis::run_stage_packing(fx.sw,
                                        analysis::TargetProfile::bmv2()),
            0u);
  EXPECT_EQ(fx.sw.pipeline().size(), 2u);
}

TEST(Pack, MergedActionIsNewOriginalsIntact) {
  PackFixture fx;
  const auto a1 = fx.sw.add_action([&] {
    ProgramBuilder b("orig1");
    const TempId idx = b.konst(0);
    b.store_reg(fx.r1, idx, b.konst(5));
    return b.take();
  }());
  const auto a2 = fx.sw.add_action([&] {
    ProgramBuilder b("orig2");
    const TempId idx = b.konst(0);
    b.store_reg(fx.r2, idx, b.konst(6));
    return b.take();
  }());
  fx.sw.add_program_stage(a1);
  fx.sw.add_program_stage(a2);
  const std::size_t actions_before = fx.sw.action_count();

  ASSERT_EQ(analysis::run_stage_packing(fx.sw,
                                        analysis::TargetProfile::bmv2()),
            1u);
  EXPECT_EQ(fx.sw.action_count(), actions_before + 1);
  // Originals are untouched — they may still be table-dispatch targets.
  EXPECT_EQ(fx.sw.action(a1).name, "orig1");
  EXPECT_EQ(fx.sw.action(a2).name, "orig2");
}

// ---- the pass manager -----------------------------------------------------

TEST(PassManager, CanonicalPassNames) {
  const std::vector<std::string> expected = {"constprop", "strength", "cse",
                                             "dce", "pack"};
  EXPECT_EQ(analysis::pass_names(), expected);
}

TEST(PassManager, UnknownPassThrows) {
  Program p;
  p.name = "empty";
  PassManagerOptions opt;
  opt.passes = {"bogus"};
  EXPECT_THROW((void)analysis::optimize_program(p, opt),
               std::invalid_argument);
}

TEST(PassManager, PassSubsetRunsOnlyThatPass) {
  auto sw = analysis::build_example_mutable("echo");
  PassManagerOptions opt;
  opt.passes = {"dce"};
  const auto result = analysis::optimize_switch(*sw, opt);
  ASSERT_EQ(result.pass_stats.size(), 1u);
  EXPECT_EQ(result.pass_stats[0].pass, "dce");
}

TEST(PassManager, OptimizerIsIdempotentOnAllApps) {
  for (const analysis::ExampleApp& app : analysis::example_apps()) {
    auto sw = analysis::build_example_mutable(app.name);
    const auto first = analysis::optimize_switch(*sw);
    EXPECT_TRUE(first.fixpoint) << app.name;
    const auto second = analysis::optimize_switch(*sw);
    EXPECT_FALSE(second.changed())
        << app.name << ": second optimizer run applied "
        << second.total_rewrites() << " rewrite(s) — not a fixpoint";
    EXPECT_EQ(second.before.instructions, second.after.instructions)
        << app.name;
  }
}

TEST(PassManager, AllAppsVerifyCleanAndShrink) {
  std::size_t shrunk_ten_percent = 0;
  for (const analysis::ExampleApp& app : analysis::example_apps()) {
    auto sw = analysis::build_example_mutable(app.name);
    const auto result = analysis::optimize_switch(*sw);

    // The acceptance gate: zero error diagnostics from the full verifier
    // over the optimized pipeline.
    const auto verified =
        analysis::verify_switch(*sw, analysis::AnalysisOptions{});
    EXPECT_TRUE(verified.ok()) << app.name;

    EXPECT_LE(result.after.instructions, result.before.instructions)
        << app.name;
    EXPECT_LE(result.after.temps, result.before.temps) << app.name;
    if (result.after.instructions * 10 <= result.before.instructions * 9) {
      ++shrunk_ten_percent;
    }
  }
  EXPECT_GE(shrunk_ten_percent, 3u)
      << "fewer than 3 catalog apps shrank by >= 10% instructions";
}

TEST(PassManager, CostJsonSchema) {
  analysis::CostSummary before;
  before.instructions = 10;
  before.stages = 2;
  before.temps = 5;
  before.registers = 1;
  before.state_bytes = 32;
  analysis::CostSummary after = before;
  after.instructions = 8;
  std::ostringstream os;
  analysis::render_cost_json(os, before, after);
  EXPECT_EQ(os.str(),
            "{\"instructions\":{\"before\":10,\"after\":8},"
            "\"stages\":{\"before\":2,\"after\":2},"
            "\"temps\":{\"before\":5,\"after\":5},"
            "\"registers\":{\"before\":1,\"after\":1},"
            "\"state_bytes\":{\"before\":32,\"after\":32}}");
}

// ---- fast-path invalidation (the config_gen_ regression) -------------------

TEST(FastPath, RecompilesAfterInPlaceRewrite) {
  auto sw = analysis::build_example_mutable("echo");

  (void)sw->process(p4sim::make_echo_packet(1));
  (void)sw->process(p4sim::make_echo_packet(2));
  const std::uint64_t compiles_before = sw->pipeline_compile_count();
  EXPECT_EQ(compiles_before, 1u);  // steady state: compiled exactly once

  const auto result = analysis::optimize_switch(*sw);
  ASSERT_TRUE(result.changed());

  (void)sw->process(p4sim::make_echo_packet(3));
  EXPECT_GT(sw->pipeline_compile_count(), compiles_before)
      << "in-place program rewrite did not invalidate the compiled pipeline";
  (void)sw->process(p4sim::make_echo_packet(4));
  EXPECT_EQ(sw->pipeline_compile_count(), compiles_before + 1)
      << "recompile did not reach a new steady state";
}

}  // namespace
