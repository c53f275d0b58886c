// Interactive / scripted runtime CLI over a Stat4 monitor switch — the
// operational companion to bmv2's simple_switch_CLI.  Reads commands from
// stdin (one per line), prints each result; `help` lists commands.
//
// With `--threads N` the CLI drives a FLEET of N identical monitor switches,
// each on its own worker thread (runtime::FleetRunner).  Configuration and
// query commands broadcast to every switch; injected / replayed packets are
// routed across the fleet by destination-address hash, exercising the
// threaded pipeline the way an ECMP fabric would spread flows over edge
// switches.  Digests are printed as they reach the controller thread.
// `--batch-size N` sets how many packets each worker drains from its ring
// per atomic handshake, and how many the CLI stages per switch before it
// publishes them (the FleetRunner drain burst, default 64); larger bursts
// amortize synchronization, smaller ones cut per-packet latency.
//
// `--ml` attaches the controller-side anomaly ensemble (docs/ML.md): every
// rate-spike digest and (in fleet mode) every per-switch delivered delta
// feeds a consensus k-means detector; consensus anomalies print as they
// fire, and the `ml` command dumps the detector state per metric.
//
// `--metrics[=FILE]` turns on the telemetry reporter: the process-wide
// metrics registry (packet counts, ring occupancy, digest latency, ...) is
// snapshotted every `--metrics-interval-ms` (default 1000) and written to
// FILE — JSON, or Prometheus text when FILE ends in `.prom`; with no FILE,
// JSON lines go to stderr.  A final snapshot is always written at exit.
// In a build with -DSTAT4_TELEMETRY=OFF the snapshots are empty.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cli/runtime_cli.hpp"
#include "control/ml/ml.hpp"
#include "p4sim/craft.hpp"
#include "p4sim/exec_tier.hpp"
#include "p4sim/parser.hpp"
#include "p4sim/trace.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/telemetry.hpp"

namespace {

/// `ml` command output: the detector's full state, one line per metric.
std::string ml_report(const control::ml::AnomalyDetector& det) {
  const control::ml::DetectorState st = det.snapshot();
  std::ostringstream out;
  out << "ml: samples=" << st.samples << " anomalies=" << st.anomalies
      << " ignored_digests=" << st.ignored_digests;
  for (const auto& m : st.metrics) {
    out << "\n  [" << m.id << "] " << m.name << ": samples=" << m.samples
        << " scored=" << m.scored << " anomalies=" << m.anomalies
        << " last_score_q16=" << m.last_score_q16
        << " models=" << m.models.size() << " bits=0x" << std::hex
        << m.anomaly_bits << std::dec;
  }
  return out.str();
}

/// Prints every consensus anomaly as it fires (wired as the detector's
/// anomaly callback in --ml mode).
void print_anomaly(const control::ml::FeedResult& r,
                   const std::string& name) {
  std::cout << "ML CONSENSUS ANOMALY metric=" << name
            << " score_q16=" << r.score_q16 << '\n';
}

/// Reporter wiring shared by single-switch and fleet mode.
std::unique_ptr<telemetry::Reporter> start_metrics_reporter(
    const std::string& path, std::uint64_t interval_ms) {
  telemetry::Reporter::Options options;
  options.interval = std::chrono::milliseconds(interval_ms);
  options.sink = [path](const telemetry::Snapshot& snapshot) {
    if (!telemetry::write_snapshot(snapshot, path)) {
      std::cerr << "stat4_cli: cannot write metrics to '" << path << "'\n";
    }
  };
  return std::make_unique<telemetry::Reporter>(
      telemetry::MetricsRegistry::global(), std::move(options));
}

struct Fleet {
  Fleet(std::size_t n, std::size_t batch_size, bool ml,
        p4sim::ExecTier tier) {
    runtime::FleetRunner::Config cfg;
    cfg.queue_capacity = 4096;
    cfg.policy = runtime::FleetRunner::Policy::kBlock;  // CLI replay: lossless
    cfg.drain_burst = batch_size;
    runner = std::make_unique<runtime::FleetRunner>(cfg);
    for (std::size_t i = 0; i < n; ++i) {
      apps.push_back(std::make_unique<stat4p4::MonitorApp>());
      apps.back()->sw().set_exec_tier(tier);
      shells.push_back(std::make_unique<cli::RuntimeCli>(*apps.back()));
      runner->add_switch(*apps.back());
    }
    if (ml) {
      // Every rate-spike digest and every per-switch delivered delta feeds
      // the consensus ensemble; anomalies print as they fire (docs/ML.md).
      detector =
          std::make_unique<control::ml::AnomalyDetector>();
      for (std::size_t i = 0; i < n; ++i) {
        const std::string sw = "sw" + std::to_string(i);
        detector->watch_digest(static_cast<control::SwitchId>(i),
                               stat4p4::kDigestRateSpike,
                               sw + ".rate_spike");
        detector->watch_counter(sw + ".delivered");
      }
      detector->set_anomaly_callback(print_anomaly);
    }
    runner->set_digest_sink([this](control::SwitchId sw,
                                   const p4sim::Digest& d) {
      std::cout << "[sw " << sw << "] digest id=" << d.id
                << " value=" << d.payload[1] << " t_us=" << d.time / 1000
                << '\n';
      if (detector) detector->on_digest(sw, d);
    });
    runner->start();
  }

  /// --ml: one detector sample per switch from the delivered counters
  /// (called after each traffic command, behind the flush barrier).
  void feed_ml() {
    if (!detector) return;
    telemetry::Snapshot snap;
    for (std::size_t i = 0; i < apps.size(); ++i) {
      snap.counters.push_back(
          {"sw" + std::to_string(i) + ".delivered",
           runner->counters(static_cast<control::SwitchId>(i)).delivered});
    }
    detector->feed_snapshot(snap);
  }

  /// Destination-hash routing, the way an ECMP fabric spreads flows.
  [[nodiscard]] control::SwitchId route(const p4sim::Packet& pkt) const {
    const auto parsed = p4sim::parse(pkt);
    const std::uint32_t dst = parsed.ipv4 ? parsed.ipv4->dst : 0;
    // Knuth multiplicative hash so adjacent subnets spread across switches.
    return static_cast<control::SwitchId>((dst * 2654435761u) %
                                          apps.size());
  }

  std::unique_ptr<runtime::FleetRunner> runner;
  std::vector<std::unique_ptr<stat4p4::MonitorApp>> apps;
  std::vector<std::unique_ptr<cli::RuntimeCli>> shells;
  std::unique_ptr<control::ml::AnomalyDetector> detector;
};

int run_fleet(std::size_t threads, std::size_t batch_size, bool ml,
              p4sim::ExecTier tier) {
  Fleet fleet(threads, batch_size, ml, tier);
  std::cout << "stat4 runtime CLI — fleet mode, " << threads
            << " switch threads; 'help' for commands\n";
  std::string line;
  bool done = false;
  while (!done && std::getline(std::cin, line)) {
    std::istringstream tokens(line);
    std::string cmd;
    tokens >> cmd;
    if (cmd.empty() || cmd[0] == '#') continue;
    if (cmd == "quit") break;

    if (cmd == "inject_udp") {
      std::string src_text;
      std::string dst_text;
      std::uint64_t ts_us = 0;
      std::uint32_t src = 0;
      std::uint32_t dst = 0;
      if (!(tokens >> src_text >> dst_text >> ts_us) ||
          !cli::parse_ipv4_addr(src_text, &src) ||
          !cli::parse_ipv4_addr(dst_text, &dst)) {
        std::cout << "error: usage: inject_udp <src> <dst> <ts_us>\n";
        continue;
      }
      p4sim::Packet pkt = p4sim::make_udp_packet(src, dst, 1000, 2000);
      pkt.ingress_ts = static_cast<stat4::TimeNs>(ts_us) * 1000;
      const auto sw = fleet.route(pkt);
      fleet.runner->inject(sw, std::move(pkt));
      fleet.runner->flush();
      fleet.runner->poll_digests();
      fleet.feed_ml();
      std::cout << "injected to switch " << sw << '\n';
      continue;
    }
    if (cmd == "replay") {
      std::string path;
      if (!(tokens >> path)) {
        std::cout << "error: usage: replay <trace-file>\n";
        continue;
      }
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        std::cout << "error: cannot open '" << path << "'\n";
        continue;
      }
      p4sim::TraceReader reader(in);
      std::uint64_t packets = 0;
      while (auto pkt = reader.next()) {
        fleet.runner->inject(fleet.route(*pkt), std::move(*pkt));
        ++packets;
      }
      fleet.runner->flush();
      fleet.runner->poll_digests();
      fleet.feed_ml();
      const auto totals = fleet.runner->totals();
      std::cout << "replayed " << packets << " packets across " << threads
                << " switches: " << totals.delivered << " delivered, "
                << totals.digests << " digest(s) so far\n";
      continue;
    }
    if (cmd == "ml") {
      if (!fleet.detector) {
        std::cout << "error: run with --ml to enable the anomaly ensemble\n";
      } else {
        fleet.runner->flush();
        std::cout << ml_report(*fleet.detector) << '\n';
      }
      continue;
    }
    if (cmd == "counters") {
      fleet.runner->flush();
      const auto totals = fleet.runner->totals();
      std::cout << "fleet packets=" << totals.delivered
                << " digests=" << totals.digests << '\n';
      for (std::size_t i = 0; i < fleet.shells.size(); ++i) {
        std::cout << "[sw " << i << "] "
                  << fleet.shells[i]->execute("counters") << '\n';
      }
      continue;
    }

    // Everything else is a control-plane command: broadcast to every
    // switch, behind the flush barrier so it cannot race the workers.
    fleet.runner->flush();
    std::vector<std::string> outputs;
    for (auto& shell : fleet.shells) {
      outputs.push_back(shell->execute(line));
      if (shell->done()) done = true;
    }
    // Identical switches give identical answers to configuration commands;
    // print switch 0's answer once, and per-switch output only for the
    // state-reading commands where the fleets' registers can differ.
    const bool per_switch =
        cmd == "register_read" || cmd == "stats" || cmd == "dump";
    if (!per_switch) {
      if (!outputs[0].empty()) std::cout << outputs[0] << '\n';
    } else {
      for (std::size_t i = 0; i < outputs.size(); ++i) {
        if (!outputs[i].empty()) {
          std::cout << "[sw " << i << "] " << outputs[i] << '\n';
        }
      }
    }
    fleet.runner->poll_digests();
  }
  fleet.runner->stop();
  const auto totals = fleet.runner->totals();
  std::cout << "fleet shutdown: " << totals.sent << " injected, "
            << totals.delivered << " delivered, " << totals.dropped
            << " dropped, " << totals.digests << " digests\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t threads = 1;
  std::size_t batch_size = 64;
  bool ml = false;
  // Which tier the switch data paths run on (docs/PERFORMANCE.md,
  // "Execution tiers").  Default: threaded (or STAT4_EXEC_TIER).
  p4sim::ExecTier exec_tier = p4sim::default_exec_tier();
  bool metrics = false;
  std::string metrics_path;
  std::uint64_t metrics_interval_ms = 1000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--batch-size" && i + 1 < argc) {
      batch_size =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
      if (batch_size == 0) {
        std::cerr << "stat4_cli: --batch-size must be >= 1\n";
        return 2;
      }
    } else if (arg == "--ml") {
      ml = true;
    } else if (arg.rfind("--exec-tier=", 0) == 0 ||
               (arg == "--exec-tier" && i + 1 < argc)) {
      const std::string name =
          arg == "--exec-tier"
              ? std::string(argv[++i])
              : arg.substr(std::string("--exec-tier=").size());
      const auto parsed = p4sim::parse_exec_tier(name);
      if (!parsed) {
        std::cerr << "stat4_cli: bad --exec-tier '" << name
                  << "' (threaded, native, reference)\n";
        return 2;
      }
      exec_tier = *parsed;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics = true;
      metrics_path = arg.substr(std::string("--metrics=").size());
    } else if (arg == "--metrics-interval-ms" && i + 1 < argc) {
      metrics = true;
      metrics_interval_ms = std::strtoull(argv[++i], nullptr, 10);
      if (metrics_interval_ms == 0) metrics_interval_ms = 1;
    } else {
      std::cerr << "usage: stat4_cli [--threads N] [--batch-size N] [--ml] "
                   "[--exec-tier {threaded,native,reference}] "
                   "[--metrics[=FILE]] [--metrics-interval-ms N]\n";
      return 2;
    }
  }

  std::unique_ptr<telemetry::Reporter> reporter;
  if (metrics) {
    reporter = start_metrics_reporter(metrics_path, metrics_interval_ms);
    std::cerr << "metrics: reporting every " << metrics_interval_ms
              << " ms to "
              << (metrics_path.empty() ? std::string("stderr")
                                       : metrics_path)
              << '\n';
  }
  // The reporter outlives the fleet/shell scope below; its destructor
  // (stop()) writes the final snapshot after the workers are joined.

  if (threads > 1) return run_fleet(threads, batch_size, ml, exec_tier);

  stat4p4::MonitorApp app;
  app.sw().set_exec_tier(exec_tier);
  cli::RuntimeCli shell(app);
  std::unique_ptr<control::ml::AnomalyDetector> detector;
  if (ml) {
    detector = std::make_unique<control::ml::AnomalyDetector>();
    detector->watch_digest(0, stat4p4::kDigestRateSpike, "sw0.rate_spike");
    detector->set_anomaly_callback(print_anomaly);
  }
  std::cout << "stat4 runtime CLI — 'help' for commands\n";
  std::string line;
  std::size_t digests_fed = 0;
  while (!shell.done() && std::getline(std::cin, line)) {
    std::istringstream tokens(line);
    std::string cmd;
    tokens >> cmd;
    if (cmd == "ml") {
      std::cout << (detector
                        ? ml_report(*detector)
                        : std::string(
                              "error: run with --ml to enable the anomaly "
                              "ensemble"))
                << '\n';
      continue;
    }
    const std::string out = shell.execute(line);
    if (!out.empty()) std::cout << out << '\n';
    // --ml: digests raised by injected packets feed the ensemble.
    for (; digests_fed < shell.digests().size(); ++digests_fed) {
      if (detector) detector->on_digest(0, shell.digests()[digests_fed]);
    }
  }
  return 0;
}
