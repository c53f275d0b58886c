// Golden pin of the threaded lowering (p4sim::threaded_compile).
//
// Every action the repo ships, every action of the guarded-run fuzz and
// those of the forms switch are lowered exactly as their switch lowers them
// (with the switch's observable set), and a hash of the resulting op stream
// is compared against tests/golden/threaded_lowering.txt, one line per
// action:
//
//   <app>/<raw|opt> <index> <name> ops=<n> guarded=<g> fnv=<hex>
//
// covering every analysis::example_apps() app, raw and after
// analysis::optimize_switch, both random actions of each seed of
// GuardedRuns.RandomIrMatchesInterpreterAcrossPacketStreams (app
// `fuzz<seed>`) and both actions of the forms switch (tests/support/
// forms_switch.hpp, app `forms`), which lower to the op forms no other
// action needs.  `ops` counts the stream including its terminator and
// `guarded` is ThreadedProgram::guarded_ops.  The hash is FNV-1a over a
// canonical text of each op: its opcode, operands, field, register id,
// immediate, register size and mask, and the cell it points at as an array
// plus an offset from that array's window base — never the handler or a
// raw pointer, so the pin holds across processes and builds.  A change to
// the lowering that alters any stream, intended or not, fails here and
// prints the first changed action's new stream in full.  A second test
// requires every opcode numbered below the terminator's to appear in some
// stream, so each op form the lowering can select is pinned.  To regenerate
// after an intended change:
//
//   STAT4_UPDATE_GOLDEN=1 ./threaded_lowering_golden_test
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "analysis/catalog.hpp"
#include "analysis/pass_manager.hpp"
#include "p4sim/p4sim.hpp"
#include "support/forms_switch.hpp"
#include "support/guard_fuzz.hpp"

namespace {

constexpr const char* kGoldenFile = "threaded_lowering.txt";
constexpr std::size_t kCatalogActions = 186;

struct Lowered {
  std::string line;    ///< the golden line
  std::string stream;  ///< the canonical text the line hashes
  std::vector<std::uint8_t> opcodes;  ///< the stream's, terminator last
};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The register cell `base` points at, as `r<array>+<offset>`; `-` for
/// none.  Found by address, so a pointer into an array other than op.reg
/// would show.
std::string cell_text(p4sim::RegisterFile& registers, const p4sim::Word* base) {
  if (base == nullptr) return "-";
  const auto addr = reinterpret_cast<std::uintptr_t>(base);
  for (std::size_t r = 0; r < registers.array_count(); ++r) {
    const p4sim::RegisterWindow w =
        registers.window(static_cast<p4sim::RegisterId>(r));
    const auto lo = reinterpret_cast<std::uintptr_t>(w.base);
    if (addr >= lo && addr < lo + w.size * sizeof(p4sim::Word)) {
      return "r" + std::to_string(r) + "+" +
             std::to_string((addr - lo) / sizeof(p4sim::Word));
    }
  }
  return "?";
}

std::string stream_text(const p4sim::ThreadedProgram& lowered,
                        p4sim::RegisterFile& registers) {
  std::string out;
  char buf[256];
  for (const p4sim::ThreadedOp& op : lowered.ops) {
    std::snprintf(buf, sizeof buf,
                  "op=%u dst=%u a=%u b=%u c=%u e=%u field=%u reg=%u "
                  "imm=%" PRIu64 " size=%" PRIu64 " mask=%" PRIu64 " cell=",
                  static_cast<unsigned>(op.opcode),
                  static_cast<unsigned>(op.dst), static_cast<unsigned>(op.a),
                  static_cast<unsigned>(op.b), static_cast<unsigned>(op.c),
                  static_cast<unsigned>(op.e),
                  static_cast<unsigned>(op.field),
                  static_cast<unsigned>(op.reg), op.imm, op.reg_size,
                  op.reg_mask);
    out += buf;
    out += cell_text(registers, op.reg_base);
    out += '\n';
  }
  return out;
}

/// Lowers action `index` of `sw` as the switch would and appends its line.
void lower(p4sim::P4Switch& sw, std::size_t index, const std::string& tag,
           std::vector<Lowered>& out) {
  const p4sim::Program& prog = sw.action(static_cast<p4sim::ActionId>(index));
  const p4sim::ThreadedProgram lowered = p4sim::threaded_compile(
      prog, sw.registers(), test_support::observable_of(sw));
  Lowered l;
  l.stream = stream_text(lowered, sw.registers());
  for (const p4sim::ThreadedOp& op : lowered.ops) {
    l.opcodes.push_back(op.opcode);
  }
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016" PRIx64, fnv1a(l.stream));
  l.line = tag + " " + std::to_string(index) + " " + prog.name +
           " ops=" + std::to_string(lowered.ops.size()) +
           " guarded=" + std::to_string(lowered.guarded_ops) + " fnv=" + hash;
  out.push_back(std::move(l));
}

void lower_all(p4sim::P4Switch& sw, const std::string& tag,
               std::vector<Lowered>& out) {
  for (std::size_t a = 0; a < sw.action_count(); ++a) lower(sw, a, tag, out);
}

std::vector<Lowered> lower_everything() {
  std::vector<Lowered> out;
  for (const analysis::ExampleApp& app : analysis::example_apps()) {
    const auto sw = analysis::build_example_mutable(app.name);
    lower_all(*sw, app.name + "/raw", out);
    (void)analysis::optimize_switch(*sw);
    lower_all(*sw, app.name + "/opt", out);
  }
  const test_support::IrGenOptions opt = test_support::guard_fuzz_options();
  for (std::uint64_t seed = 1; seed <= test_support::kGuardFuzzSeeds; ++seed) {
    const auto sw = test_support::fuzz_switch(seed, opt, nullptr);
    const std::string tag = "fuzz" + std::to_string(seed) + "/raw";
    lower(*sw, 0, tag, out);
    lower(*sw, 1, tag, out);
  }
  lower_all(*test_support::forms_switch(/*with_undeclared=*/true), "forms/raw",
            out);
  return out;
}

bool update_requested() {
  const char* env = std::getenv("STAT4_UPDATE_GOLDEN");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(ThreadedLoweringGolden, EveryStreamMatchesGolden) {
  const std::string path = std::string(STAT4_GOLDEN_DIR) + "/" + kGoldenFile;
  const std::vector<Lowered> lowered = lower_everything();
  // Every catalog action, raw and optimized, two per fuzz seed and the
  // forms switch's two.
  ASSERT_EQ(lowered.size(),
            kCatalogActions + 2 * test_support::kGuardFuzzSeeds + 2);
  if (update_requested()) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    for (const Lowered& l : lowered) out << l.line << '\n';
    GTEST_SKIP() << "updated " << path;
  }
  const std::vector<std::string> golden = read_lines(path);
  ASSERT_FALSE(golden.empty())
      << path << " missing — run with STAT4_UPDATE_GOLDEN=1 to create it";
  for (std::size_t i = 0; i < lowered.size() && i < golden.size(); ++i) {
    if (lowered[i].line != golden[i]) {
      FAIL() << kGoldenFile << " drifted at line " << i + 1
             << "\n  lowered: " << lowered[i].line
             << "\n  golden:  " << golden[i] << "\nthe lowered stream:\n"
             << lowered[i].stream
             << "If intended, regenerate with STAT4_UPDATE_GOLDEN=1";
    }
  }
  ASSERT_EQ(lowered.size(), golden.size())
      << "actions lowered vs lines in " << kGoldenFile;
}

TEST(ThreadedLoweringGolden, EveryOpcodeAppearsInSomeStream) {
  // Every stream ends with the terminator, the highest opcode; each one
  // below it must appear somewhere, or the golden pins none of its uses.
  const std::vector<Lowered> lowered = lower_everything();
  ASSERT_FALSE(lowered.empty());
  const std::uint8_t end = lowered.front().opcodes.back();
  std::set<unsigned> seen;
  for (const Lowered& l : lowered) {
    ASSERT_EQ(l.opcodes.back(), end) << l.line;
    seen.insert(l.opcodes.begin(), l.opcodes.end());
  }
  for (unsigned op = 0; op < end; ++op) {
    EXPECT_TRUE(seen.count(op) != 0) << "opcode " << op << " is in no stream";
  }
}

}  // namespace
