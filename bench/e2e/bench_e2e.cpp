// bench_e2e: the end-to-end benchmark harness.
//
//   bench_e2e --workload steady|alerts|netwide|case_study --seed N
//             [--seconds S] [--trace=FILE]
//   bench_e2e --smoke      every workload at ~1% length (the ctest entry)
//
// Prints every end-to-end metric by name with its unit and how it was
// aggregated, then, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics":
//    {"<name>": {"value": ..., "unit": "..."}, ...}}
// --trace=FILE also records the traced trials' spans into FILE (Chrome
// trace-event JSON; trace_report.py turns it into the per-layer table).
// Exit status: 0 when every output matched its reference, 1 on any
// mismatch or a malformed result, 2 on a usage error.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "harness.hpp"

namespace {

constexpr const char* kWorkloads[] = {"steady", "alerts", "netwide",
                                      "case_study"};

/// The end-to-end metrics every workload reports (BENCHMARK.json lists the
/// same names with their bounds).
struct Expected {
  const char* name;
  const char* unit;
};
constexpr Expected kEndToEnd[] = {
    {"setup_s", "s"}, {"pps", "1/s"}, {"latency_p50_us", "us"}};

/// The JSON schema check: exactly the expected metrics, finite and > 0.
std::string schema_error(const e2e::Outcome& out) {
  if (out.metrics.size() != std::size(kEndToEnd)) return "wrong metric count";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const e2e::Metric& m = out.metrics[i];
    if (m.name != kEndToEnd[i].name || m.unit != kEndToEnd[i].unit) {
      return "unexpected metric " + m.name;
    }
    if (!std::isfinite(m.value) || m.value <= 0) {
      return "metric " + m.name + " is not a positive number";
    }
  }
  if (out.attempted == 0) return "no operation attempted";
  return {};
}

void print_human(const e2e::Options& opt, const e2e::Outcome& out) {
  std::printf("bench_e2e %s seed=%" PRIu64 "\n", opt.workload.c_str(),
              opt.seed);
  for (const e2e::Metric& m : out.metrics) {
    std::printf("  %-28s %14.6g %-7s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.basis.c_str());
  }
  for (const e2e::Metric& m : out.info) {
    std::printf("  info %-23s %14.6g %-7s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.basis.c_str());
  }
  for (const std::string& n : out.notes) std::printf("  %s\n", n.c_str());
  for (const std::string& m : out.mismatches) {
    std::printf("  MISMATCH %s\n", m.c_str());
  }
  std::printf("  fail_ratio %" PRIu64 "/%" PRIu64 "\n", out.failed,
              out.attempted);
}

void print_json(const e2e::Outcome& out, bool correct) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", out.attempted, out.failed);
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const e2e::Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Runs one workload; returns whether its outputs and result were sound.
bool run_one(const e2e::Options& opt) {
  e2e::Tracer tracer;
  const e2e::Outcome out = e2e::run_workload(opt, tracer);
  if (!opt.trace_path.empty()) {
    tracer.write(opt.trace_path, opt.workload, opt.seed);
  }
  const std::string schema = schema_error(out);
  print_human(opt, out);
  if (!schema.empty()) std::printf("  SCHEMA %s\n", schema.c_str());
  const bool correct = out.failed == 0 && schema.empty();
  print_json(out, correct);
  return correct;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload NAME --seed N "
               "[--seconds S] [--trace=FILE] | --smoke\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    if (a == "--smoke") {
      smoke = true;
    } else if (a == "--workload") {
      opt.workload = next();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(next(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(next(), nullptr);
    } else if (a.rfind("--trace=", 0) == 0) {
      opt.trace_path = std::string(a.substr(8));
    } else {
      usage(("unknown argument " + std::string(a)).c_str());
    }
  }
  try {
    if (smoke) {
      opt.smoke = true;
      bool ok = true;
      for (const char* w : kWorkloads) {
        opt.workload = w;
        ok = run_one(opt) && ok;
      }
      return ok ? 0 : 1;
    }
    if (opt.workload.empty()) usage("--workload is required");
    if (!(opt.seconds > 0)) usage("--seconds must be positive");
    return run_one(opt) ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
