// Native-tier degradation: when the native tier cannot be used — no host
// compiler, a compiler that produces nothing loadable (dlopen failure), or
// a program the transpiler refuses — the switch must degrade SILENTLY to
// the threaded tier: same outputs, no throw, active_tier() == kThreaded,
// and one p4sim.jit.fallbacks telemetry count per degraded lowering.
//
// STAT4_JIT_CC is read per compile and failures are never memoized (the
// compiler is part of the cache key), so each test here can sabotage the
// toolchain, observe the fallback, and restore it without polluting later
// native-tier compiles in the same process.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "p4sim/jit/transpiler.hpp"
#include "p4sim/p4sim.hpp"
#include "stat4p4/stat4p4.hpp"
#include "telemetry/metrics.hpp"

namespace {

using p4sim::ExecTier;
using p4sim::ipv4;

std::uint64_t fallback_count() {
  return telemetry::MetricsRegistry::global()
      .counter("p4sim.jit.fallbacks")
      .value();
}

void configure(stat4p4::MonitorApp& app) {
  app.install_forward(ipv4(10, 0, 0, 0), 8, 1);
  stat4p4::FreqBindingSpec spec;
  spec.dst_prefix = ipv4(10, 0, 0, 0);
  spec.dst_prefix_len = 8;
  spec.dist = 1;
  spec.shift = 8;
  app.install_freq_binding(spec);
}

p4sim::Packet test_packet() {
  return p4sim::make_udp_packet(ipv4(8, 8, 8, 8), ipv4(10, 0, 3, 1), 1, 2);
}

/// Runs one packet on the native tier under the current environment and
/// returns the switch for inspection; asserts output is identical to a
/// threaded-tier twin (degradation must not change results).
void expect_degrades_to_threaded(const std::string& what) {
  stat4p4::MonitorApp native_app;
  stat4p4::MonitorApp threaded_app;
  configure(native_app);
  configure(threaded_app);
  native_app.sw().set_exec_tier(ExecTier::kNative);
  threaded_app.sw().set_exec_tier(ExecTier::kThreaded);

  const std::uint64_t before = fallback_count();
  const auto out_native = native_app.sw().process(test_packet());
  const auto out_threaded = threaded_app.sw().process(test_packet());

  EXPECT_EQ(native_app.sw().active_tier(), ExecTier::kThreaded) << what;
  EXPECT_EQ(native_app.sw().exec_tier(), ExecTier::kNative)
      << what << ": the configured tier must survive the degradation";
  EXPECT_EQ(out_native.dropped, out_threaded.dropped) << what;
  ASSERT_EQ(out_native.packets.size(), out_threaded.packets.size()) << what;
  for (std::size_t i = 0; i < out_native.packets.size(); ++i) {
    EXPECT_EQ(out_native.packets[i].first, out_threaded.packets[i].first)
        << what;
    EXPECT_EQ(out_native.packets[i].second.data,
              out_threaded.packets[i].second.data)
        << what;
  }
#if STAT4_TELEMETRY_ENABLED
  EXPECT_EQ(fallback_count(), before + 1)
      << what << ": one fallback count per degraded lowering";
#else
  (void)before;
#endif
}

class JitFallback : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* cur = std::getenv("STAT4_JIT_CC");
    if (cur != nullptr) saved_cc_ = cur;
    had_cc_ = cur != nullptr;
  }
  void TearDown() override {
    if (had_cc_) {
      ::setenv("STAT4_JIT_CC", saved_cc_.c_str(), 1);
    } else {
      ::unsetenv("STAT4_JIT_CC");
    }
    p4sim::jit::force_unsupported_op_for_testing(std::nullopt);
  }

 private:
  std::string saved_cc_;
  bool had_cc_ = false;
};

TEST_F(JitFallback, MissingCompilerDegradesToThreaded) {
  ::setenv("STAT4_JIT_CC", "/nonexistent/stat4-no-such-cc", 1);
  expect_degrades_to_threaded("missing compiler");
}

TEST_F(JitFallback, DlopenFailureDegradesToThreaded) {
  // /bin/true exits 0 without producing the shared object, so the compile
  // "succeeds" and dlopen fails — the later failure point must degrade
  // identically.
  ::setenv("STAT4_JIT_CC", "/bin/true", 1);
  expect_degrades_to_threaded("dlopen failure");
}

TEST_F(JitFallback, UnsupportedOpDegradesToThreaded) {
  // The transpiler refuses the program before any compiler runs.
  p4sim::jit::force_unsupported_op_for_testing(p4sim::Op::kStoreReg);
  expect_degrades_to_threaded("unsupported op");
}

TEST_F(JitFallback, RecoversOnceCompilerIsBack) {
  // The sabotage above must not be sticky: with the real toolchain
  // restored, the same program lowers natively again (failures are not
  // memoized).  Guarded on the toolchain actually working here, which the
  // differential suite establishes; if even the default compiler is absent
  // in this environment, degradation is the correct outcome and the test
  // only checks that processing still works.
  ::unsetenv("STAT4_JIT_CC");
  stat4p4::MonitorApp app;
  configure(app);
  app.sw().set_exec_tier(ExecTier::kNative);
  const std::uint64_t before = fallback_count();
  const auto out = app.sw().process(test_packet());
  EXPECT_FALSE(out.dropped);
  const ExecTier active = app.sw().active_tier();
  EXPECT_TRUE(active == ExecTier::kNative || active == ExecTier::kThreaded)
      << p4sim::to_string(active);
#if STAT4_TELEMETRY_ENABLED
  EXPECT_EQ(active == ExecTier::kThreaded, fallback_count() == before + 1)
      << "threaded only after a counted fallback";
#else
  (void)before;
#endif
}

}  // namespace
