// Golden pin of the overflow pass over the shipped catalog.
//
// Runs `stat4_lint --app=all --bounds` (the binary path is baked in by
// CMake) under each target profile and at N = 2^24 observations, and
// compares the whole output -- every diagnostic and every proven register
// bound -- byte for byte with tests/golden/lint_bounds_*.txt.  No other
// committed baseline holds overflow bounds: BENCH_static_costs.json holds
// optimizer costs, and bench_compare.py --precision lets error bounds
// tighten.  To regenerate after an intended change:
//
//   STAT4_UPDATE_GOLDEN=1 ./lint_bounds_golden_test
//
// then commit the updated golden files alongside the change.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

bool update_requested() {
  const char* env = std::getenv("STAT4_UPDATE_GOLDEN");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

/// Runs `stat4_lint --app=all --bounds ARGS` and expects it to exit with
/// `exit_code` and print exactly tests/golden/FILE.
void check_golden(const std::string& args, const std::string& file,
                  int exit_code) {
  const std::string cmd =
      std::string(STAT4_TOOL_LINT) + " --app=all --bounds " + args;
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr) << cmd;
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = fread(buf, 1, sizeof buf, pipe)) != 0) out.append(buf, n);
  const int status = pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status)) << cmd << " did not exit: " << status;
  EXPECT_EQ(WEXITSTATUS(status), exit_code) << cmd;

  const std::string path = std::string(STAT4_GOLDEN_DIR) + "/" + file;
  if (update_requested()) {
    std::ofstream(path, std::ios::binary) << out;
    GTEST_SKIP() << "updated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream golden;
  golden << in.rdbuf();
  ASSERT_FALSE(golden.str().empty())
      << path << " missing -- run with STAT4_UPDATE_GOLDEN=1 to create it";

  // Report the first differing line.
  std::istringstream a(out);
  std::istringstream b(golden.str());
  std::string la;
  std::string lb;
  for (int line = 1;; ++line) {
    const bool ga = static_cast<bool>(std::getline(a, la));
    const bool gb = static_cast<bool>(std::getline(b, lb));
    if (!ga && !gb) break;
    ASSERT_TRUE(ga == gb && la == lb)
        << file << " drifted from golden at line " << line
        << "\n  output: " << (ga ? la : "<eof>")
        << "\n  golden: " << (gb ? lb : "<eof>")
        << "\nIf intended, regenerate with STAT4_UPDATE_GOLDEN=1";
  }
  EXPECT_EQ(out, golden.str()) << file << " differs from golden (same lines)";
}

TEST(LintBoundsGolden, Bmv2) {
  check_golden("--profile=bmv2", "lint_bounds_bmv2.txt", 0);
}

TEST(LintBoundsGolden, HardwareNomul) {
  // The catalog's runtime multiplies are S4-TGT-001 errors on this target.
  check_golden("--profile=hardware-nomul", "lint_bounds_hardware_nomul.txt",
               1);
}

TEST(LintBoundsGolden, Strict) {
  check_golden("--profile=strict", "lint_bounds_strict.txt", 1);
}

TEST(LintBoundsGolden, Bmv2AtTwoTo24Observations) {
  // Past the paper's N*Xsumsq cliff the variance products wrap (S4-OVF-003).
  check_golden("--max-observations=16777216", "lint_bounds_n16777216.txt", 1);
}

}  // namespace
