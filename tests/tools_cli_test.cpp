// The stat4_cli binary end to end: one short script piped to the built
// tool (path baked in by CMake), in single-switch mode and in fleet mode
// (--threads 2: one FleetRunner worker thread per switch).  cli_test drives
// RuntimeCli as a library; this test runs the tool's own argument parsing
// and fleet loop, so every sanitizer leg covers them.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace {

// Two UDP packets into 10/8, which is forwarded and bound to distribution 1.
constexpr const char* kScript =
    "forward_add 10.0.0.0/8 1\n"
    "bind_add 10.0.0.0/8 1 8\n"
    "inject_udp 192.168.0.1 10.0.5.6 1000\n"
    "inject_udp 192.168.0.2 10.7.0.9 2000\n"
    "counters\n";

struct CliRun {
  std::string out;
  int exit_code = -1;
};

CliRun run_cli(const std::string& args) {
  const std::string cmd = std::string("printf '") + kScript + "' | " +
                          STAT4_TOOL_CLI + args + " 2>&1";
  CliRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  if (pipe == nullptr) return run;
  char buf[4096];
  std::size_t n = 0;
  while ((n = fread(buf, 1, sizeof buf, pipe)) != 0) run.out.append(buf, n);
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

TEST(ToolCli, SingleSwitchForwardsAndCounts) {
  const CliRun run = run_cli("");
  EXPECT_EQ(run.exit_code, 0) << run.out;
  EXPECT_NE(run.out.find("forwarded"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("packets=2"), std::string::npos) << run.out;
  EXPECT_EQ(run.out.find("error"), std::string::npos) << run.out;
}

TEST(ToolCli, FleetModeAccountsForEveryPacket) {
  const CliRun run = run_cli(" --threads 2");
  EXPECT_EQ(run.exit_code, 0) << run.out;
  EXPECT_NE(run.out.find("fleet mode, 2 switch threads"), std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("fleet packets=2"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("fleet shutdown: 2 injected, 2 delivered, 0 dropped"),
            std::string::npos)
      << run.out;
  EXPECT_EQ(run.out.find("error"), std::string::npos) << run.out;
}

TEST(ToolCli, RemovedInterpreterTierIsAUsageError) {
  EXPECT_EQ(run_cli(" --exec-tier=interp").exit_code, 2);
}

}  // namespace
