// stat4_lint: static verification of Stat4 switch programs.
//
// Runs the src/analysis/ verifier — overflow/value-range proof, register
// hazard pass, target-constraint lint, emitted-P4 source lint — over the
// shipped example applications (catalog.hpp) and reports diagnostics as
// compiler-style text or JSON.
//
// Usage:
//   stat4_lint [--app=NAME|all] [--profile=bmv2|hardware-nomul|strict]
//              [--max-observations=N] [--min-severity=note|warning|error]
//              [--json] [--bounds] [--precision] [--suggest-sketch=EPS,DELTA]
//              [--list-rules] [--list-apps]
//
// --precision switches to the error-bound pass (precision.hpp): per-app
// proven max |impl - ideal| for every register array and written field,
// S4-PREC diagnostics, text or JSON (the JSON carries raw Q32 bounds for
// scripts/bench_compare.py --precision).  --suggest-sketch inverts the
// count-min/count-sketch accuracy bounds into a width/depth recommendation
// per app (S4-PREC-005/006).
//
// Exit codes: 0 = no error-severity diagnostics; 1 = at least one error;
// 2 = usage / unknown app or profile.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"

namespace {

void usage(std::ostream& os) {
  os << "usage: stat4_lint [--app=NAME|all] "
        "[--profile=bmv2|hardware-nomul|strict]\n"
        "                  [--max-observations=N] "
        "[--min-severity=note|warning|error]\n"
        "                  [--json] [--bounds] [--precision]\n"
        "                  [--suggest-sketch=EPS,DELTA] [--list-rules] "
        "[--list-apps]\n";
}

bool parse_eps_delta(const char* s, double* eps, double* delta) {
  char* end = nullptr;
  *eps = std::strtod(s, &end);
  if (end == s || *end != ',') return false;
  const char* rest = end + 1;
  *delta = std::strtod(rest, &end);
  return end != rest && *end == '\0';
}

void render_error_bounds_json(std::ostream& os,
                              const std::vector<analysis::ErrorBound>& bounds) {
  os << "[";
  bool first = true;
  for (const analysis::ErrorBound& b : bounds) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << analysis::json_escape(b.name)
       << "\",\"width_bits\":" << b.width_bits << ",\"value_hi\":" << b.value_hi
       << ",\"err_q32\":\"" << analysis::err_q32_raw_str(b.err_q32)
       << "\",\"err_units\":" << b.err_units()
       << ",\"vacuous\":" << (b.vacuous ? "true" : "false")
       << ",\"assumed\":" << (b.assumed ? "true" : "false") << "}";
  }
  os << "]";
}

void render_error_bounds_text(std::ostream& os,
                              const std::vector<analysis::ErrorBound>& bounds,
                              const char* kind) {
  for (const analysis::ErrorBound& b : bounds) {
    os << "  " << kind << " " << b.name << "[" << b.width_bits
       << "b] value <= " << b.value_hi
       << "  |err| <= " << analysis::err_q32_str(b.err_q32);
    if (b.vacuous) os << "  VACUOUS";
    if (b.assumed) os << "  ASSUMED";
    os << "\n";
  }
}

bool parse_severity(const std::string& s, analysis::Severity* out) {
  if (s == "note") *out = analysis::Severity::kNote;
  else if (s == "warning") *out = analysis::Severity::kWarning;
  else if (s == "error") *out = analysis::Severity::kError;
  else return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string app = "all";
  std::string profile_name = "bmv2";
  std::uint64_t max_observations = std::uint64_t{1} << 20;
  bool max_observations_overridden = false;
  analysis::Severity min_severity = analysis::Severity::kNote;
  bool json = false;
  bool bounds = false;
  bool precision = false;
  bool suggest_sketch = false;
  double sketch_eps = 0.0;
  double sketch_delta = 0.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* app_v = value("--app=")) {
      app = app_v;
    } else if (const char* profile_v = value("--profile=")) {
      profile_name = profile_v;
    } else if (const char* obs_v = value("--max-observations=")) {
      char* end = nullptr;
      max_observations = std::strtoull(obs_v, &end, 0);
      if (end == obs_v || *end != '\0' || max_observations == 0) {
        std::cerr << "stat4_lint: bad --max-observations value '" << obs_v
                  << "'\n";
        return 2;
      }
      max_observations_overridden = true;
    } else if (const char* sev_v = value("--min-severity=")) {
      if (!parse_severity(sev_v, &min_severity)) {
        std::cerr << "stat4_lint: bad --min-severity value '" << sev_v
                  << "'\n";
        return 2;
      }
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--bounds") {
      bounds = true;
    } else if (arg == "--precision") {
      precision = true;
    } else if (const char* sk_v = value("--suggest-sketch=")) {
      if (!parse_eps_delta(sk_v, &sketch_eps, &sketch_delta)) {
        std::cerr << "stat4_lint: bad --suggest-sketch value '" << sk_v
                  << "' (expected EPS,DELTA)\n";
        return 2;
      }
      suggest_sketch = true;
    } else if (arg == "--list-rules") {
      for (const analysis::RuleInfo& r : analysis::rule_catalogue()) {
        std::cout << r.id << "  " << analysis::severity_name(r.default_severity)
                  << "  " << r.summary << "\n";
      }
      return 0;
    } else if (arg == "--list-apps") {
      for (const analysis::ExampleApp& a : analysis::example_apps()) {
        std::cout << a.name << "  " << a.description << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else {
      std::cerr << "stat4_lint: unknown argument '" << arg << "'\n";
      usage(std::cerr);
      return 2;
    }
  }

  analysis::AnalysisOptions options;
  try {
    options.profile = analysis::TargetProfile::by_name(profile_name);
  } catch (const std::invalid_argument& e) {
    std::cerr << "stat4_lint: " << e.what() << "\n";
    return 2;
  }
  options.max_observations = max_observations;

  std::vector<std::string> apps;
  if (app == "all") {
    for (const analysis::ExampleApp& a : analysis::example_apps()) {
      apps.push_back(a.name);
    }
  } else {
    apps.push_back(app);
  }

  bool any_errors = false;
  bool first = true;
  if (json) std::cout << "[";
  for (const std::string& name : apps) {
    std::shared_ptr<const p4sim::P4Switch> sw;
    try {
      sw = analysis::build_example(name);
    } catch (const std::invalid_argument& e) {
      std::cerr << "stat4_lint: " << e.what() << " (see --list-apps)\n";
      return 2;
    }
    // Each catalog app certifies against its own observation bound; an
    // explicit --max-observations overrides it for every app.
    if (!max_observations_overridden) {
      for (const analysis::ExampleApp& a : analysis::example_apps()) {
        if (a.name == name) options.max_observations = a.max_observations;
      }
    }

    if (precision || suggest_sketch) {
      analysis::PrecisionResult pres;
      if (precision) pres = analysis::analyze_precision(*sw, options);
      sketch::SketchSizing sizing;
      if (suggest_sketch) {
        sizing = analysis::report_sketch_sizing(
            sketch_eps, sketch_delta, options.max_observations, name,
            pres.diags);
      }
      pres.diags.sort();
      any_errors = any_errors || pres.diags.has_errors();

      if (json) {
        if (!first) std::cout << ",";
        std::cout << "\n{\"app\":\"" << analysis::json_escape(name)
                  << "\",\"max_observations\":" << options.max_observations
                  << ",\"fixpoint\":" << (pres.fixpoint ? "true" : "false")
                  << ",\"iterations\":" << pres.iterations
                  << ",\"extrapolated\":"
                  << (pres.extrapolated ? "true" : "false")
                  << ",\"registers\":";
        render_error_bounds_json(std::cout, pres.register_bounds);
        std::cout << ",\"fields\":";
        render_error_bounds_json(std::cout, pres.field_bounds);
        if (suggest_sketch) {
          std::cout << ",\"sketch\":{\"eps\":" << sizing.eps
                    << ",\"delta\":" << sizing.delta
                    << ",\"feasible\":" << (sizing.feasible ? "true" : "false")
                    << ",\"cm_width\":" << sizing.cm_width
                    << ",\"cm_depth\":" << sizing.cm_depth
                    << ",\"cm_memory_bytes\":" << sizing.cm_memory_bytes
                    << ",\"cm_max_excess\":" << sizing.cm_max_excess
                    << ",\"cs_width\":" << sizing.cs_width
                    << ",\"cs_depth\":" << sizing.cs_depth
                    << ",\"cs_memory_bytes\":" << sizing.cs_memory_bytes
                    << "}";
        }
        std::cout << ",\"report\":";
        pres.diags.render_json(std::cout);
        std::cout << "}";
      } else {
        std::cout << "== " << name << " (N <= " << options.max_observations
                  << ") ==\n";
        pres.diags.render_text(std::cout, min_severity);
        if (precision) {
          render_error_bounds_text(std::cout, pres.register_bounds, "reg");
          render_error_bounds_text(std::cout, pres.field_bounds, "field");
        }
      }
      first = false;
      continue;
    }

    const analysis::AnalysisResult result =
        analysis::verify_switch(*sw, options);
    any_errors = any_errors || !result.ok();

    if (json) {
      if (!first) std::cout << ",";
      std::cout << "\n{\"app\":\"" << analysis::json_escape(name)
                << "\",\"profile\":\""
                << analysis::json_escape(options.profile.name)
                << "\",\"fixpoint\":" << (result.fixpoint ? "true" : "false")
                << ",\"iterations\":" << result.iterations
                << ",\"max_observations\":" << options.max_observations
                << ",\"report\":";
      result.diags.render_json(std::cout);
      std::cout << "}";
    } else {
      std::cout << "== " << name << " (profile " << options.profile.name
                << ", N <= " << options.max_observations << ") ==\n";
      result.diags.render_text(std::cout, min_severity);
      if (bounds) {
        for (const analysis::RegisterBound& rb : result.register_bounds) {
          std::cout << "  bound " << rb.name << "[" << rb.width_bits
                    << "b] <= " << rb.hi
                    << (rb.exceeds_width ? "  EXCEEDS WIDTH" : "") << "\n";
        }
      }
    }
    first = false;
  }
  if (json) std::cout << "\n]\n";

  return any_errors ? 1 : 0;
}
