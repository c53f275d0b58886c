// The four workloads of the end-to-end benchmark (README.md says why each
// exists and which layers it loads).  Every workload builds its switches,
// runs one untimed warm-up trial, then timed trials until the budget is
// spent, and checks every output against a reference.  Run lengths are
// constants here, not flags; only --smoke shrinks them (to ~1%).
//
// On a shared host, noise is correlated over seconds, so each run spreads
// many short trials (and the set-up samples) across its whole budget and
// reports medians over them.  How fast two threads talk depends on which
// CPUs they run on, so every trial also moves the threads: lanes are fresh
// threads, and the producer is pinned to the next CPU.
#include <sched.h>

#include <algorithm>
#include <array>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "control/case_study.hpp"
#include "control/fleet.hpp"
#include "control/ml/detector.hpp"
#include "control/sketch_aggregate.hpp"
#include "harness.hpp"
#include "netsim/rng.hpp"
#include "p4sim/craft.hpp"
#include "replay.hpp"
#include "runtime/fleet_runner.hpp"
#include "sketch/apps.hpp"
#include "stat4p4/apps.hpp"
#include "telemetry/metrics.hpp"

namespace e2e {
namespace {

using control::SwitchId;
using p4sim::ipv4;
using runtime::FleetRunner;

constexpr std::uint32_t kSrcIp = ipv4(172, 16, 0, 1);
constexpr SwitchId kLanes = 2;           // + the producer: 3 threads
constexpr int kSetupsPerTrial = 4;       // set-up samples taken per trial
constexpr std::uint64_t kWindow = 4096;  // sends per traced window
constexpr std::uint64_t kPollEvery = 256;        // closed loop: sends/poll
constexpr std::uint64_t kOpenPollEvery = 32;     // open loop, behind schedule
constexpr std::uint64_t kSlowInjectNs = 1000;    // above: met backpressure
constexpr std::size_t kOpenLoopQueue = 16384;    // open-loop ring capacity

/// SplitMix64 finalizer: counter-based randomness, so the reference replay
/// regenerates any packet from (seed, index) alone.
constexpr std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The gen layer: builds one packet the way a netsim host does.
p4sim::Packet craft(std::uint32_t dst, std::uint64_t ts) {
  p4sim::Packet pkt = p4sim::make_udp_packet(kSrcIp, dst, 4000, 80);
  pkt.ingress_ts = static_cast<stat4::TimeNs>(ts);
  return pkt;
}

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }
double per_s(std::uint64_t n, std::uint64_t ns) {
  return static_cast<double>(n) / (static_cast<double>(ns) / 1e9);
}

std::uint64_t scaled(const Options& opt, std::uint64_t n) {
  return opt.smoke ? std::max<std::uint64_t>(n / 100, 512) : n;
}

/// trial(-1) is the untimed warm-up; then trial(0), trial(1), ... until the
/// budget is spent, at least `min_trials` times (once under --smoke).  A
/// traced run spends the first half of the budget untraced (the overhead
/// baseline) and the second half traced.  Returns the number of untraced
/// timed trials.
int run_trials(const Options& opt, Tracer& tr, int min_trials,
               const std::function<void(int)>& trial) {
  trial(-1);
  int k = 0;
  auto phase = [&](double seconds, int min) {
    const std::uint64_t end =
        now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    for (int n = 0; n < min || now_ns() < end; ++n) trial(k++);
  };
  if (opt.smoke) {
    phase(0, 1);
    return k;
  }
  if (opt.trace_path.empty()) {
    phase(opt.seconds, min_trials);
    return k;
  }
  phase(opt.seconds / 2, min_trials);
  const int untraced = k;
  tr.set_on(true);
  phase(opt.seconds / 2, min_trials);
  tr.set_on(false);
  return untraced;
}

std::string basis(std::size_t n, const char* what) {
  return "median of " + std::to_string(n) + " " + what;
}

/// Adds `reps` set-up samples: build the lanes' apps, install their tables,
/// start a runner and get one packet through each lane (which lowers each
/// pipeline).
template <class MakeApp>
void sample_setup(std::vector<double>& out, int reps,
                  const FleetRunner::Config& cfg, MakeApp make_app,
                  std::uint32_t dst) {
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    std::vector<decltype(make_app())> apps;
    FleetRunner runner(cfg);
    for (SwitchId l = 0; l < kLanes; ++l) {
      apps.push_back(make_app());
      runner.add_switch(apps.back()->sw());
    }
    runner.set_digest_sink([](SwitchId, const p4sim::Digest&) {});
    runner.start();
    for (SwitchId l = 0; l < kLanes; ++l) runner.inject(l, craft(dst, 1 + l));
    runner.flush();
    out.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    runner.stop();
  }
}

/// Pins the calling (producer) thread to one CPU of its allowed set, a
/// different one each trial, and restores the full set when destroyed.
/// Created after a runner starts, so the lanes keep the full set.
class ProducerCpu {
 public:
  explicit ProducerCpu(std::uint64_t trial) {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    const int n = CPU_COUNT(&saved_);
    if (n < 2) return;
    int want = static_cast<int>(trial % static_cast<std::uint64_t>(n));
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (!CPU_ISSET(c, &saved_) || want-- != 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
      break;
    }
  }
  ~ProducerCpu() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  ProducerCpu(const ProducerCpu&) = delete;
  ProducerCpu& operator=(const ProducerCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Harness-side layer ops of the fleet workloads.
struct FleetOps {
  explicit FleetOps(Tracer& tr)
      : craft(tr.op("gen.craft")),
        wait(tr.op("gen.wait")),
        observe(tr.op("gen.observe")),
        check(tr.op("gen.check")),
        inject(tr.op("runtime.inject", tr.op("runtime.inject_blocked"),
                     kSlowInjectNs)),
        poll(tr.op("runtime.poll")),
        flush(tr.op("runtime.flush")),
        start(tr.op("runtime.start_stop")),
        correlate(tr.op("control.correlate")),
        ml_feed(tr.op("control.ml_feed")),
        aggregate(tr.op("control.aggregate")) {}
  Tracer::OpId craft, wait, observe, check, inject, poll, flush, start,
      correlate, ml_feed, aggregate;
};

/// Counters a traced trial turns into per-layer rates.
struct TraceTally {
  std::vector<double> depth;
  std::uint64_t parks = 0;
  std::uint64_t wakes = 0;
  std::uint64_t packets = 0;
  std::uint64_t digests = 0;
  std::uint64_t parks0 = 0;
  std::uint64_t wakes0 = 0;

  static std::uint64_t read(const char* name) {
    return telemetry::MetricsRegistry::global().counter(name).value();
  }
  void begin(const Tracer& tr) {
    if (!tr.on()) return;
    parks0 = read("runtime.fleet.parks");
    wakes0 = read("runtime.fleet.wakes");
  }
  void end(const Tracer& tr, std::uint64_t pkts) {
    if (!tr.on()) return;
    parks += read("runtime.fleet.parks") - parks0;
    wakes += read("runtime.fleet.wakes") - wakes0;
    packets += pkts;
  }
  void sample_depth(const Tracer& tr, const FleetRunner& runner) {
    if (!tr.on()) return;
    for (SwitchId l = 0; l < kLanes; ++l) {
      const FleetRunner::Counters c = runner.counters(l);
      depth.push_back(static_cast<double>(c.sent - c.delivered - c.dropped));
    }
  }
  void report(Tracer& tr, const std::vector<double>& pps,
              const std::vector<double>& pps_traced) const {
    const double kpkt = std::max(1.0, static_cast<double>(packets) / 1e3);
    tr.value("pps.untraced", median(pps));
    tr.value("pps.traced", median(pps_traced));
    tr.value("runtime.ring_depth.p50", median(depth));
    tr.value("runtime.ring_depth.p99", quantile(depth, 0.99));
    tr.value("runtime.parks_per_kpkt", static_cast<double>(parks) / kpkt);
    tr.value("runtime.wakes_per_kpkt", static_cast<double>(wakes) / kpkt);
    tr.value("runtime.digests_polled", static_cast<double>(digests));
  }
};

/// A fleet of `kLanes` identical apps on one runner, and the digests each
/// lane delivered to the sink.  The runner is started and stopped around
/// every trial; the apps (and their state) persist.
template <class App>
struct Fleet {
  Fleet(const FleetRunner::Config& cfg, std::unique_ptr<App> (*make)())
      : runner(cfg) {
    for (SwitchId l = 0; l < kLanes; ++l) {
      apps.push_back(make());
      runner.add_switch(apps.back()->sw());
    }
  }
  std::vector<std::unique_ptr<App>> apps;
  FleetRunner runner;  // after apps: joins its workers before they die
  std::array<std::vector<p4sim::Digest>, kLanes> got;
  std::uint64_t sent = 0;  ///< trace indices [0, sent) were offered
  std::uint64_t lost = 0;  ///< offered but never delivered

  void start(Tracer& tr, const FleetOps& op) {
    tr.to(op.start);
    runner.start();
  }
  void stop(Tracer& tr, const FleetOps& op, std::uint64_t end) {
    tr.to(op.start);
    runner.stop();
    const FleetRunner::Counters c = runner.totals();
    lost += c.sent - c.delivered;
    sent = end;
  }
  void note_tiers(Outcome& out) const {
    for (SwitchId l = 0; l < kLanes; ++l) {
      out.notes.push_back("lane " + std::to_string(l) + " active tier: " +
                          p4sim::to_string(apps[l]->sw().active_tier()));
    }
  }
};

/// An open-loop schedule: trace indices [begin, begin + n) in bursts of
/// `burst` packets, burst j due at t0 + j * gap.  The sink maps a digest
/// back to its packet's due time through ingress_ts = (i + 1) * ts_step.
struct Schedule {
  bool active = false;
  std::uint64_t begin = 0;
  std::uint64_t n = 0;
  std::uint64_t burst = 1;
  std::uint64_t gap = 0;
  std::uint64_t ts_step = 1;
  std::uint64_t t0 = 0;

  [[nodiscard]] std::uint64_t due(std::uint64_t i) const {
    return t0 + (i - begin) / burst * gap;
  }
  [[nodiscard]] std::uint64_t due_of(stat4::TimeNs ts) const {
    return due(static_cast<std::uint64_t>(ts) / ts_step - 1);
  }
};

/// Closed loop: offer trace indices [begin, begin + n) as fast as the lanes
/// accept them (kBlock), polling digests every kPollEvery sends, then
/// flush.  `next(i)` gives {lane, dst}; ingress_ts is (i + 1) * ts_step.
/// Returns the wall time, start to flushed.
template <class App, class Next>
std::uint64_t closed_loop(Fleet<App>& f, Tracer& tr, const FleetOps& op,
                          TraceTally& tally, const std::string& window,
                          std::uint64_t req, std::uint64_t begin,
                          std::uint64_t n, std::uint64_t ts_step, Next next) {
  tr.begin_window(window, req);
  f.start(tr, op);
  const ProducerCpu cpu(req);
  tally.begin(tr);
  const std::uint64_t t0 = now_ns();
  for (std::uint64_t i = begin; i < begin + n; ++i) {
    if ((i - begin) % kWindow == kWindow - 1) tr.begin_window(window, req);
    tr.to(op.craft);
    const auto [lane, dst] = next(i);
    p4sim::Packet pkt = craft(dst, (i + 1) * ts_step);
    tr.to(op.inject);
    f.runner.inject(lane, std::move(pkt));
    if ((i - begin) % kPollEvery == kPollEvery - 1) {
      tr.to(op.observe);
      tally.sample_depth(tr, f.runner);
      tr.to(op.poll);
      f.runner.poll_digests();
    }
  }
  tr.to(op.flush);
  f.runner.flush();
  tr.to(op.poll);
  f.runner.poll_digests();
  const std::uint64_t wall = now_ns() - t0;
  tally.end(tr, n);
  f.stop(tr, op, begin + n);
  tr.end_window();
  return wall;
}

/// Sojourn: from a packet's due time until its lane's delivered counter
/// passes it.  Lanes are FIFO, so a queue per lane suffices.
class SojournMeter {
 public:
  explicit SojournMeter(const FleetRunner& runner) : runner_(runner) {}

  /// Call for every ACCEPTED packet, in send order; `track` times it.
  void sent(SwitchId lane, std::uint64_t due, bool track) {
    const std::uint64_t seq = seq_[lane]++;
    if (track) pending_[lane].push_back({seq, due});
  }

  void observe(std::uint64_t now) {
    for (SwitchId l = 0; l < kLanes; ++l) {
      if (pending_[l].empty()) continue;
      const std::uint64_t delivered = runner_.counters(l).delivered;
      while (!pending_[l].empty() && pending_[l].front().seq < delivered) {
        samples_[l].push_back(us(now - pending_[l].front().due));
        pending_[l].pop_front();
      }
    }
  }

  [[nodiscard]] bool idle() const {
    return pending_[0].empty() && pending_[1].empty();
  }

  /// Samples per lane, in send order.
  std::array<std::vector<double>, kLanes> take() {
    return std::exchange(samples_, {});
  }

 private:
  struct Pending {
    std::uint64_t seq;
    std::uint64_t due;
  };
  const FleetRunner& runner_;
  std::array<std::uint64_t, kLanes> seq_{};
  std::array<std::deque<Pending>, kLanes> pending_;
  std::array<std::vector<double>, kLanes> samples_;
};

struct OpenLoopResult {
  /// burst == 1: every packet's sojourn; otherwise each burst's completion
  /// (due time until both lanes delivered its last packet).
  std::vector<double> sojourn_us;
  std::vector<double> late_us;  ///< generator lateness, per burst start
};

/// Open loop: the packets of `sched` (burst j due at t0 + j * gap) are
/// offered on time whatever the lanes do (kDrop rings); a burst's packets
/// go back to back.  While ahead of schedule the producer polls digests
/// and watches deliveries; it also polls every kOpenPollEvery sends.
/// Each packet is timed from its due time; how late the generator started
/// each burst is recorded too.
template <class App, class Next>
OpenLoopResult open_loop(Fleet<App>& f, Schedule& sched, Tracer& tr,
                         const FleetOps& op, TraceTally& tally,
                         const std::string& window, std::uint64_t req,
                         Next next) {
  OpenLoopResult r;
  const std::uint64_t begin = sched.begin;
  const std::uint64_t n = sched.n;
  const std::uint64_t burst = sched.burst;
  tr.begin_window(window, req);
  f.start(tr, op);
  const ProducerCpu cpu(req);
  SojournMeter meter(f.runner);
  tally.begin(tr);
  sched.t0 = now_ns() + 100'000;
  sched.active = true;
  for (std::uint64_t i = begin; i < begin + n; ++i) {
    if ((i - begin) % kWindow == kWindow - 1) tr.begin_window(window, req);
    tr.to(op.craft);
    const auto [lane, dst] = next(i);
    p4sim::Packet pkt = craft(dst, (i + 1) * sched.ts_step);
    const std::uint64_t due = sched.due(i);
    const std::uint64_t pos = (i - begin) % burst;
    if (pos == 0) {
      tr.to(op.wait);
      std::uint64_t now = 0;
      while ((now = now_ns()) < due) {
        meter.observe(now);
        Timed p(tr, op.poll);
        f.runner.poll_digests();
      }
      r.late_us.push_back(us(now - due));
    }
    tr.to(op.inject);
    if (f.runner.inject(lane, std::move(pkt))) {
      // A burst is timed by its last packet on each lane.
      meter.sent(lane, due, pos + kLanes >= burst);
    }
    if ((i - begin) % kOpenPollEvery == kOpenPollEvery - 1) {
      tr.to(op.observe);
      tally.sample_depth(tr, f.runner);
      tr.to(op.poll);
      f.runner.poll_digests();
    }
  }
  // Drain: every accepted packet delivered, every digest polled.
  tr.to(op.wait);
  const std::uint64_t give_up = now_ns() + 10'000'000'000ull;
  for (std::uint64_t now = now_ns(); !meter.idle() && now < give_up;
       now = now_ns()) {
    meter.observe(now);
    Timed p(tr, op.poll);
    f.runner.poll_digests();
  }
  tr.to(op.flush);
  f.runner.flush();
  tr.to(op.poll);
  f.runner.poll_digests();
  sched.active = false;
  tally.end(tr, n);
  f.stop(tr, op, begin + n);
  tr.end_window();
  std::array<std::vector<double>, kLanes> lanes = meter.take();
  if (burst == 1) {
    r.sojourn_us = std::move(lanes[0]);
    r.sojourn_us.insert(r.sojourn_us.end(), lanes[1].begin(), lanes[1].end());
  } else {
    // The k-th sample of each lane belongs to burst k (FIFO lanes).
    const std::size_t bursts = std::min(lanes[0].size(), lanes[1].size());
    for (std::size_t k = 0; k < bursts; ++k) {
      r.sojourn_us.push_back(std::max(lanes[0][k], lanes[1][k]));
    }
  }
  return r;
}

/// The reference check a fleet workload ends with: each lane's digests
/// against a fresh app fed the lane's packets by
/// `lane_packets(tracer, lane, feed)` (both lanes replayed at once, one on
/// this thread).  In a traced run the lane-0 replay also probes the p4sim
/// layers.
template <class App, class LanePackets>
void check_lanes(Outcome& out, Tracer& tr, bool traced,
                 const std::string& what, std::unique_ptr<App> (*make)(),
                 const Fleet<App>& f, LanePackets lane_packets) {
  out.attempted += f.sent;
  if (f.lost != 0) {
    out.fail(f.lost, what + ": " + std::to_string(f.lost) + " packets lost");
    return;  // the digests of a lossy run have no single-threaded reference
  }
  std::array<std::unique_ptr<App>, kLanes> ref;
  for (auto& app : ref) app = make();
  Tracer quiet;
  std::array<std::vector<p4sim::Digest>, kLanes> want;
  std::exception_ptr failure;
  std::jthread other([&] {
    try {
      Replay replay(ref[1]->sw(), quiet);
      lane_packets(quiet, SwitchId{1},
                   [&](p4sim::Packet pkt) { replay.feed(std::move(pkt)); });
      want[1] = replay.digests();
    } catch (...) {
      failure = std::current_exception();
    }
  });
  tr.set_on(traced);
  tr.begin_window(what + ".replay", 0);
  Replay replay(ref[0]->sw(), tr);
  lane_packets(tr, SwitchId{0},
               [&](p4sim::Packet pkt) { replay.feed(std::move(pkt)); });
  tr.end_window();
  if (traced) replay.report(tr);
  tr.set_on(false);
  want[0] = replay.digests();
  other.join();
  if (failure) std::rethrow_exception(failure);
  for (SwitchId l = 0; l < kLanes; ++l) {
    const std::uint64_t bad = digest_mismatches(want[l], f.got[l]);
    out.attempted += std::max(want[l].size(), f.got[l].size());
    out.fail(bad, what + ": lane " + std::to_string(l) + " has " +
                      std::to_string(bad) + " digests unlike the reference");
  }
}

/// Feeds lane `l`'s packets of trace indices [0, sent) to `feed`, in order.
template <class Dst, class Feed>
void lane_trace(Tracer& tr, SwitchId l, std::uint64_t sent,
                std::uint64_t ts_step, Dst dst, const Feed& feed) {
  const Tracer::OpId op = tr.op("gen.craft");
  for (std::uint64_t i = l; i < sent; i += kLanes) {
    tr.to(op);
    feed(craft(dst(i), (i + 1) * ts_step));
  }
}

FleetRunner::Config closed_config() {
  FleetRunner::Config cfg;
  cfg.policy = FleetRunner::Policy::kBlock;
  return cfg;
}

FleetRunner::Config open_config() {
  FleetRunner::Config cfg;
  cfg.policy = FleetRunner::Policy::kDrop;
  cfg.queue_capacity = kOpenLoopQueue;
  return cfg;
}

// steady and alerts run three loops per trial on two fleets: a closed loop
// (pps); bursts of kBurst packets every kBurstGapNs, whose latency is the
// gated one; and single packets every kPacketGapNs, whose microsecond
// latencies are reported for information.  Both open loops offer 0.5 Mpps
// on average.  On a shared host the per-packet latencies swing by 20-30%
// from run to run, too much to gate; a burst's latency is set by the work
// it carries and holds within ~10%.
constexpr std::uint64_t kBurst = 256;
constexpr std::uint64_t kBurstGapNs = 512'000;
constexpr std::uint64_t kPacketGapNs = 2'000;
constexpr std::uint64_t kTrialClosed = 500'000;  // packets per loop
constexpr std::uint64_t kTrialBursts = 128'000;
constexpr std::uint64_t kTrialPackets = 100'000;

/// Per-trial samples of steady and alerts.
struct Phases {
  std::vector<double> setup, pps, pps_traced;
  std::vector<double> lat50, lat90;      ///< the gated (burst) latency
  std::vector<double> pp50, pp90, pp99;  ///< per-packet latency, 0.5 Mpps
  std::vector<double> soj50, soj90, soj99, late;

  /// Records one trial; `burst_lat` and `packet_lat` are the workload's
  /// latency samples in the two open loops.
  void add(const Tracer& tr, int k, std::uint64_t closed_n,
           std::uint64_t closed_wall, const std::vector<double>& burst_lat,
           const std::vector<double>& packet_lat, const OpenLoopResult& pp) {
    if (k < 0) return;
    (tr.on() ? pps_traced : pps).push_back(per_s(closed_n, closed_wall));
    if (tr.on()) return;
    lat50.push_back(median(burst_lat));
    lat90.push_back(quantile(burst_lat, 0.9));
    pp50.push_back(median(packet_lat));
    pp90.push_back(quantile(packet_lat, 0.9));
    pp99.push_back(quantile(packet_lat, 0.99));
    soj50.push_back(median(pp.sojourn_us));
    soj90.push_back(quantile(pp.sojourn_us, 0.9));
    soj99.push_back(quantile(pp.sojourn_us, 0.99));
    late.push_back(quantile(pp.late_us, 0.99));
  }
};

/// Trace indices of trial `req` (0 = warm-up): the closed loop's on fleet
/// A, then the burst loop's and the per-packet loop's on fleet B.
struct TrialRanges {
  std::uint64_t closed_n, bursts_n, packets_n;
  [[nodiscard]] std::uint64_t closed_begin(std::uint64_t req) const {
    return req * closed_n;
  }
  [[nodiscard]] std::uint64_t bursts_begin(std::uint64_t req) const {
    return req * (bursts_n + packets_n);
  }
  [[nodiscard]] std::uint64_t packets_begin(std::uint64_t req) const {
    return bursts_begin(req) + bursts_n;
  }
};

TrialRanges trial_ranges(const Options& opt) {
  const std::uint64_t bursts =
      opt.smoke ? 5 * kBurst : kTrialBursts;  // whole bursts
  return {scaled(opt, kTrialClosed), bursts, scaled(opt, kTrialPackets)};
}

// ------------------------------------------------------------------ steady
//
// 2 MonitorApp lanes running the case study's pipeline after drill-down: a
// rate monitor (8 ms x 100 intervals) plus a per-/24 frequency binding,
// k = 4.  36 destinations in six /24s at a constant simulated rate: no
// anomaly, so the digest path idles.  The closed loop is a lossless
// (kBlock) replay; the open loops' latency is each packet's sojourn: due
// time until its lane delivered it (a burst: until both lanes delivered
// their last packet of it).

constexpr std::uint64_t kSteadyTsStep = 20'000;  // sim ns: 25 kpps per lane

std::unique_ptr<stat4p4::MonitorApp> make_monitor() {
  stat4p4::Stat4Config cfg;
  cfg.counter_num = 4;
  cfg.counter_size = 256;
  cfg.k_sigma = 4;
  auto app = std::make_unique<stat4p4::MonitorApp>(cfg);
  app->install_forward(ipv4(10, 0, 0, 0), 8, 1);
  app->install_rate_monitor(ipv4(10, 0, 0, 0), 8, 0, 8 * stat4::kMillisecond,
                            100, 8);
  stat4p4::FreqBindingSpec per24;
  per24.dst_prefix = ipv4(10, 0, 0, 0);
  per24.dst_prefix_len = 8;
  per24.dist = 1;
  per24.shift = 8;
  per24.mask = 0xFF;
  per24.min_total = 256;
  app->install_freq_binding(per24);
  return app;
}

Outcome run_steady(const Options& opt, Tracer& tr) {
  Outcome out;
  const std::uint64_t seed = opt.seed;
  auto dst = [seed](std::uint64_t i) {
    const std::uint64_t r = mix(seed ^ mix(i)) % 36;
    return ipv4(10, 0, 1 + static_cast<unsigned>(r / 6),
                1 + static_cast<unsigned>(r % 6));
  };
  auto next = [&](std::uint64_t i) {
    return std::pair{static_cast<SwitchId>(i % kLanes), dst(i)};
  };
  const FleetOps op(tr);
  TraceTally tally;
  Schedule sched;
  Fleet<stat4p4::MonitorApp> a(closed_config(), make_monitor);
  Fleet<stat4p4::MonitorApp> b(open_config(), make_monitor);
  for (auto* f : {&a, &b}) {
    f->runner.set_digest_sink([f](SwitchId sw, const p4sim::Digest& d) {
      f->got[sw].push_back(d);
    });
  }
  Phases m;
  const TrialRanges n = trial_ranges(opt);
  const int trials = run_trials(opt, tr, 5, [&](int k) {
    const auto req = static_cast<std::uint64_t>(k + 1);
    std::vector<double> setup;
    sample_setup(setup, kSetupsPerTrial, closed_config(), make_monitor,
                 ipv4(10, 0, 1, 1));
    if (k >= 0 && !tr.on()) {
      m.setup.insert(m.setup.end(), setup.begin(), setup.end());
    }
    const std::uint64_t wall =
        closed_loop(a, tr, op, tally, "steady.closed", req,
                    n.closed_begin(req), n.closed_n, kSteadyTsStep, next);
    sched = Schedule{false, n.bursts_begin(req), n.bursts_n, kBurst,
                     kBurstGapNs, kSteadyTsStep};
    const OpenLoopResult bursts =
        open_loop(b, sched, tr, op, tally, "steady.bursts", req, next);
    sched = Schedule{false, n.packets_begin(req), n.packets_n, 1,
                     kPacketGapNs, kSteadyTsStep};
    const OpenLoopResult pp =
        open_loop(b, sched, tr, op, tally, "steady.packets", req, next);
    m.add(tr, k, n.closed_n, wall, bursts.sojourn_us, pp.sojourn_us, pp);
  });
  a.note_tiers(out);

  const bool traced = !opt.trace_path.empty();
  for (auto* f : {&a, &b}) {
    check_lanes(out, tr, traced && f == &a, "steady", make_monitor, *f,
                [&](Tracer& t, SwitchId l, const auto& feed) {
                  lane_trace(t, l, f->sent, kSteadyTsStep, dst, feed);
                });
  }
  const std::string on = basis(m.lat50.size(), "trials");
  out.metrics = {
      {"setup_s", median(m.setup), "s", basis(m.setup.size(), "set-ups")},
      {"pps", median(m.pps), "1/s",
       basis(static_cast<std::size_t>(trials), "trials") + ", closed loop"},
      {"latency_p50_us", median(m.lat50), "us",
       on + " of 256-packet burst completion"},
  };
  out.info = {
      {"burst_p90_us", median(m.lat90), "us", on},
      {"runtime.sojourn_p50_us", median(m.pp50), "us", on + ", per packet"},
      {"runtime.sojourn_p90_us", median(m.pp90), "us", on + ", per packet"},
      {"runtime.sojourn_p99_us", median(m.pp99), "us", on + ", per packet"},
      {"gen.late_us.p99", median(m.late), "us", on + ", per packet"},
  };
  out.info.push_back(
      {"p4sim.digests", static_cast<double>(a.got[0].size() + a.got[1].size() +
                                            b.got[0].size() + b.got[1].size()),
       "count", "all trials (no anomaly: expect 0)"});
  if (traced) tally.report(tr, m.pps, m.pps_traced);
  return out;
}

// ------------------------------------------------------------------ alerts
//
// A digest storm through 2 count-sketch heavy-changer lanes.  Each 256-
// packet epoch of a lane carries 8 fresh hot keys x 24 packets plus 64
// background packets over 32 stable keys, so each hot key trips the
// changer check once (~31 digests per 1k packets).  The sink feeds every
// digest to a FleetCorrelator and the ML AnomalyDetector.  The closed loop
// measures capacity under the storm; the open loops' latency is the alert
// latency: the due time of the packet that tripped a digest until the sink
// has the digest.

constexpr std::uint64_t kAlertsTsStep = 1'000;  // sim ns between packets
constexpr std::uint64_t kEpochPkts = 256;       // SketchConfig 2^epoch_shift
constexpr std::uint64_t kHotKeys = 8;
constexpr std::uint64_t kHotPkts = 24;
constexpr std::uint64_t kBgKeys = 32;
constexpr std::uint64_t kChangerThreshold = 12;

std::unique_ptr<sketch::SketchApp> make_changer() {
  auto app =
      std::make_unique<sketch::SketchApp>(sketch::SketchKind::kCountSketch);
  app->install_forward(ipv4(10, 0, 0, 0), 8, 1);
  app->install_sketch(ipv4(10, 0, 0, 0), 8, 0, 0xFFFFFFFFull,
                      kChangerThreshold);
  return app;
}

/// The controller side of one alerts phase.
struct AlertController {
  explicit AlertController(std::uint64_t seed)
      : correlator(50 * stat4::kMicrosecond), detector(config(seed)) {
    for (SwitchId l = 0; l < kLanes; ++l) {
      detector.watch_digest(l, sketch::kDigestHeavyChanger,
                            "lane" + std::to_string(l) + ".changer");
    }
  }
  static control::ml::DetectorConfig config(std::uint64_t seed) {
    control::ml::DetectorConfig c;
    c.seed = seed;
    return c;
  }
  control::FleetCorrelator correlator;
  control::ml::AnomalyDetector detector;
  std::vector<double> alert_us;  ///< due time -> sink, current trial
};

Outcome run_alerts(const Options& opt, Tracer& tr) {
  Outcome out;
  // A seed-fixed order of the 256 slots of every epoch: slots below
  // kHotKeys * kHotPkts carry hot keys.
  std::array<std::uint8_t, kEpochPkts> order{};
  for (std::size_t s = 0; s < order.size(); ++s) {
    order[s] = static_cast<std::uint8_t>(s);
  }
  netsim::Rng rng(opt.seed);
  for (std::size_t s = order.size() - 1; s > 0; --s) {
    std::swap(order[s], order[rng.below(s + 1)]);
  }
  const std::uint64_t seed = opt.seed;
  auto dst = [seed, order](std::uint64_t i) {
    const auto lane = static_cast<unsigned>(i % kLanes);
    const std::uint64_t seq = i / kLanes;
    const std::uint64_t epoch = seq / kEpochPkts;
    const std::uint64_t slot = order[seq % kEpochPkts];
    if (slot < kHotKeys * kHotPkts) {
      const std::uint64_t h =
          mix(seed ^ mix((epoch << 8) | (lane << 4) | (slot / kHotPkts)));
      return ipv4(10, 64 + lane * 32 + static_cast<unsigned>((h >> 16) & 31),
                  static_cast<unsigned>((h >> 8) & 255),
                  static_cast<unsigned>(h & 255));
    }
    return ipv4(10, 1, lane, static_cast<unsigned>(slot % kBgKeys));
  };
  auto next = [&](std::uint64_t i) {
    return std::pair{static_cast<SwitchId>(i % kLanes), dst(i)};
  };
  const FleetOps op(tr);
  TraceTally tally;
  Schedule sched;
  Fleet<sketch::SketchApp> a(closed_config(), make_changer);
  Fleet<sketch::SketchApp> b(open_config(), make_changer);
  AlertController ca(seed);
  AlertController cb(seed);
  auto wire = [&](Fleet<sketch::SketchApp>& f, AlertController& c) {
    f.runner.set_digest_sink([&](SwitchId sw, const p4sim::Digest& d) {
      if (sched.active) {
        c.alert_us.push_back(us(now_ns() - sched.due_of(d.time)));
      }
      {
        Timed t(tr, op.correlate);
        c.correlator.ingest(sw, d);
      }
      {
        Timed t(tr, op.ml_feed);
        c.detector.on_digest(sw, d);
      }
      if (tr.on()) ++tally.digests;
      f.got[sw].push_back(d);
    });
  };
  wire(a, ca);
  wire(b, cb);

  Phases m;
  const TrialRanges n = trial_ranges(opt);
  const int trials = run_trials(opt, tr, 5, [&](int k) {
    const auto req = static_cast<std::uint64_t>(k + 1);
    std::vector<double> setup;
    sample_setup(setup, kSetupsPerTrial, closed_config(), make_changer,
                 ipv4(10, 0, 1, 1));
    if (k >= 0 && !tr.on()) {
      m.setup.insert(m.setup.end(), setup.begin(), setup.end());
    }
    const std::uint64_t wall =
        closed_loop(a, tr, op, tally, "alerts.closed", req,
                    n.closed_begin(req), n.closed_n, kAlertsTsStep, next);
    sched = Schedule{false, n.bursts_begin(req), n.bursts_n, kBurst,
                     kBurstGapNs, kAlertsTsStep};
    open_loop(b, sched, tr, op, tally, "alerts.bursts", req, next);
    const std::vector<double> burst_alerts = std::exchange(cb.alert_us, {});
    sched = Schedule{false, n.packets_begin(req), n.packets_n, 1,
                     kPacketGapNs, kAlertsTsStep};
    const OpenLoopResult pp =
        open_loop(b, sched, tr, op, tally, "alerts.packets", req, next);
    m.add(tr, k, n.closed_n, wall, burst_alerts,
          std::exchange(cb.alert_us, {}), pp);
  });
  a.note_tiers(out);

  const bool traced = !opt.trace_path.empty();
  for (auto* f : {&a, &b}) {
    check_lanes(out, tr, traced && f == &a, "alerts", make_changer, *f,
                [&](Tracer& t, SwitchId l, const auto& feed) {
                  lane_trace(t, l, f->sent, kAlertsTsStep, dst, feed);
                });
  }
  const double digests_per_kpkt =
      1e3 * static_cast<double>(a.got[0].size() + a.got[1].size()) /
      static_cast<double>(std::max<std::uint64_t>(a.sent, 1));
  const std::string on = basis(m.lat50.size(), "trials");
  out.metrics = {
      {"setup_s", median(m.setup), "s", basis(m.setup.size(), "set-ups")},
      {"pps", median(m.pps), "1/s",
       basis(static_cast<std::size_t>(trials), "trials") + ", closed loop"},
      {"latency_p50_us", median(m.lat50), "us",
       on + " of alert latency in 256-packet bursts"},
  };
  out.info = {
      {"burst_alert_p90_us", median(m.lat90), "us", on},
      {"runtime.alert_p50_us", median(m.pp50), "us", on + ", per packet"},
      {"runtime.alert_p90_us", median(m.pp90), "us", on + ", per packet"},
      {"runtime.alert_p99_us", median(m.pp99), "us", on + ", per packet"},
      {"runtime.sojourn_p50_us", median(m.soj50), "us", on + ", per packet"},
      {"runtime.sojourn_p90_us", median(m.soj90), "us", on + ", per packet"},
      {"runtime.sojourn_p99_us", median(m.soj99), "us", on + ", per packet"},
      {"gen.late_us.p99", median(m.late), "us", on + ", per packet"},
  };
  out.info.push_back({"p4sim.digests_per_kpkt", digests_per_kpkt, "1/kpkt",
                      "closed loop, all trials"});
  out.info.push_back({"control.correlator_events",
                      static_cast<double>(ca.correlator.events_emitted()),
                      "count", "closed loop, all trials"});
  if (traced) {
    tally.report(tr, m.pps, m.pps_traced);
    tr.value("p4sim.digests_per_kpkt", digests_per_kpkt);
    tr.value("gen.late_us.p99", median(m.late));
  }
  return out;
}

// ----------------------------------------------------------------- netwide
//
// 2 invertible-sketch lanes in the single-producer quiesce loop of
// examples/netwide_heavy_hitter.cpp: per epoch, inject 256 packets per
// lane -> flush() -> poll_digests() -> SketchAggregator snapshot, merge,
// decode, clear.  One victim flow per 50 epochs crosses the escalation
// threshold and is dropped fleet-wide with install_drop_exact.  Each trial
// is a fresh fleet (its drop table starts empty) warmed by one epoch.

constexpr std::uint64_t kNetEpochs = 1000;    // per trial
constexpr std::uint64_t kNetEpochPkts = 256;  // per lane: 2^epoch_shift
constexpr std::uint64_t kNetWindowEpochs = 32;
constexpr std::uint64_t kVictimEvery = 50;
constexpr std::uint64_t kVictimPkts = 90;  // per lane: 180 network-wide
constexpr std::uint64_t kNetPool = 32;     // background flows per lane
constexpr std::uint64_t kHeavy = 100;
constexpr std::uint64_t kEscalate = 150;

std::unique_ptr<sketch::SketchApp> make_netwide() {
  auto app =
      std::make_unique<sketch::SketchApp>(sketch::SketchKind::kInvertible);
  app->install_forward(ipv4(10, 0, 0, 0), 8, 1);
  app->install_sketch(0, 0, 0, 0xFFFFFFFFull, 0);
  return app;
}

struct NetFleet {
  NetFleet()
      : fleet(closed_config(), make_netwide),
        agg(control::SketchAggregator::Config{kHeavy, kEscalate}) {
    agg.attach_anomaly_detector(detector,
                                detector.register_metric("netwide.volume"));
    for (SwitchId l = 0; l < kLanes; ++l) agg.add_switch(l, *fleet.apps[l]);
  }
  Fleet<sketch::SketchApp> fleet;
  control::ml::AnomalyDetector detector;
  control::SketchAggregator agg;
};

Outcome run_netwide(const Options& opt, Tracer& tr) {
  Outcome out;
  const FleetOps op(tr);
  TraceTally tally;
  const std::uint64_t epochs = opt.smoke ? 60 : kNetEpochs;
  std::uint64_t ts = 0;
  std::vector<double> setup, pps, pps_traced, p50, p90, p99, decode_ok;
  const int trials = run_trials(opt, tr, 5, [&](int k) {
    const auto req = static_cast<std::uint64_t>(k + 1);
    std::vector<double> s;
    sample_setup(s, kSetupsPerTrial, closed_config(), make_netwide,
                 ipv4(10, 7, 10, 1));
    if (k >= 0 && !tr.on()) setup.insert(setup.end(), s.begin(), s.end());
    NetFleet nf;
    nf.fleet.runner.set_digest_sink([&](SwitchId sw, const p4sim::Digest& d) {
      Timed t(tr, op.aggregate);
      nf.agg.on_digest(sw, d);
      if (tr.on()) ++tally.digests;
    });
    nf.fleet.runner.start();
    const ProducerCpu cpu(req);
    std::set<std::uint64_t> victims;
    std::vector<double> lat;
    std::uint64_t bad = 0;
    tally.begin(tr);
    std::uint64_t t0 = 0;
    for (std::uint64_t e = 0; e <= epochs; ++e) {
      if (e == 1) t0 = now_ns();  // epoch 0 warms the fresh fleet
      if (e % kNetWindowEpochs == 1) tr.begin_window("netwide.epochs", req);
      const std::uint32_t victim =
          e % kVictimEvery == kVictimEvery / 2
              ? ipv4(10, 200, static_cast<unsigned>(req & 255),
                     static_cast<unsigned>(e / kVictimEvery))
              : 0;
      if (victim != 0) victims.insert(victim);
      const std::size_t flows_before = nf.agg.flows().size();
      const std::uint64_t te = now_ns();
      for (SwitchId l = 0; l < kLanes; ++l) {
        for (std::uint64_t j = 0; j < kNetEpochPkts; ++j) {
          tr.to(op.craft);
          std::uint32_t dst = victim;
          if (victim == 0 || j >= kVictimPkts) {
            const std::uint64_t h =
                mix(opt.seed ^ mix((((req << 20) | e) << 10) | (l << 9) | j));
            dst = ipv4(10, 7, 10 + l, static_cast<unsigned>(h % kNetPool));
          }
          p4sim::Packet pkt = craft(dst, ++ts);
          tr.to(op.inject);
          nf.fleet.runner.inject(l, std::move(pkt));
        }
      }
      tr.to(op.flush);
      nf.fleet.runner.flush();
      tr.to(op.poll);
      nf.fleet.runner.poll_digests();
      if (e > 0) lat.push_back(us(now_ns() - te));
      tr.to(op.check);
      // Exactly the victim reported (and escalated) in its epoch, nothing
      // in the others, and every epoch aggregated.
      const std::vector<control::NetHeavyFlow>& flows = nf.agg.flows();
      const std::size_t added = flows.size() - flows_before;
      bool ok = nf.agg.epochs_aggregated() == e + 1;
      if (victim != 0) {
        const control::NetHeavyFlow& f = flows.back();
        ok = ok && added == 1 && f.key == victim &&
             f.count == kLanes * kVictimPkts && f.escalated &&
             f.per_switch.size() == kLanes;
      } else {
        ok = ok && added == 0;
      }
      if (!ok) ++bad;
    }
    const std::uint64_t wall = now_ns() - t0;
    tr.end_window();
    tally.end(tr, epochs * kLanes * kNetEpochPkts);
    nf.fleet.runner.stop();
    const FleetRunner::Counters tot = nf.fleet.runner.totals();
    out.attempted += epochs + 1 + tot.sent;
    out.fail(bad, "netwide: " + std::to_string(bad) + " epochs misreported");
    out.fail(nf.agg.incomplete_decodes(), "netwide: incomplete decodes");
    out.fail(tot.sent - tot.delivered, "netwide: packets lost");
    if (nf.agg.blocked_keys() != victims) out.fail(1, "netwide: blocked set");
    decode_ok.push_back(
        1.0 - static_cast<double>(nf.agg.incomplete_decodes()) /
                  static_cast<double>(nf.agg.epochs_aggregated()));
    if (k < 0) {
      nf.fleet.note_tiers(out);
      return;
    }
    const double rate = per_s(epochs * kLanes * kNetEpochPkts, wall);
    if (tr.on()) {
      pps_traced.push_back(rate);
      return;
    }
    pps.push_back(rate);
    p50.push_back(median(lat));
    p90.push_back(quantile(lat, 0.9));
    p99.push_back(quantile(std::move(lat), 0.99));
  });
  if (!opt.trace_path.empty()) {
    // p4sim probes: one lane's traffic shape through a fresh app.
    auto app = make_netwide();
    tr.set_on(true);
    tr.begin_window("netwide.replay", 0);
    Replay replay(app->sw(), tr);
    lane_trace(tr, 0, 2 * 64 * kNetEpochPkts, 1,
               [&](std::uint64_t i) {
                 const std::uint64_t h = mix(opt.seed ^ mix(i));
                 return ipv4(10, 7, 10, static_cast<unsigned>(h % kNetPool));
               },
               [&](p4sim::Packet pkt) { replay.feed(std::move(pkt)); });
    tr.end_window();
    replay.report(tr);
    tr.set_on(false);
    tally.report(tr, pps, pps_traced);
    tr.value("control.decode_complete_ratio", median(decode_ok));
  }
  const std::string on = basis(static_cast<std::size_t>(trials), "trials");
  out.metrics = {
      {"setup_s", median(setup), "s", basis(setup.size(), "set-ups")},
      {"pps", median(pps), "1/s", on},
      {"latency_p50_us", median(p50), "us",
       on + " of epoch latency (first inject -> aggregated)"},
  };
  out.info.push_back({"control.epoch_p90_us", median(p90), "us", on});
  out.info.push_back({"control.epoch_p99_us", median(p99), "us", on});
  out.info.push_back(
      {"control.decode_complete_ratio", median(decode_ok), "ratio", on});
  return out;
}

// -------------------------------------------------------------- case_study
//
// control::run_case_study with the paper's defaults (Figure 6), one
// experiment per trial, single-threaded: the netsim event loop and the
// allocating P4Switch::process() path, with the drill-down's runtime
// binding writes.  Trials cycle through 12 seeds; in each, the first
// interval after the spike must raise the alert, and the drill-down must
// name the right /24 and host within the paper's "2-3 seconds" of
// simulated time (accepted: 1 s to 5 s, the window tests/control_test.cpp
// asserts).  The experiment stops once the host is named, so its wall time
// is what the simulator spends to reach the pinpoint.

constexpr std::uint64_t kCaseSeeds = 12;
constexpr stat4::TimeNs kPinpointMin = 1 * stat4::kSecond;
constexpr stat4::TimeNs kPinpointMax = 5 * stat4::kSecond;

/// The switch run_case_study builds: a MonitorApp with the paper's
/// defaults, forwarding and the rate monitor.
stat4p4::MonitorApp case_study_switch(const control::CaseStudyParams& p) {
  stat4p4::Stat4Config cfg;
  cfg.counter_num = 4;
  cfg.counter_size = 256;
  cfg.k_sigma = p.k_sigma;
  cfg.k_sigma_rate = p.k_sigma_rate;
  stat4p4::MonitorApp app(cfg);
  app.install_forward(ipv4(10, 0, 0, 0), 8, 1);
  app.install_rate_monitor(ipv4(10, 0, 0, 0), 8, 0,
                           static_cast<std::uint64_t>(p.interval_len),
                           p.window_size, p.min_history);
  return app;
}

Outcome run_case_study(const Options& opt, Tracer& tr) {
  Outcome out;
  const Tracer::OpId op_run = tr.op("netsim.case_study");
  std::vector<double> setup, pps, pps_traced, wall_us, detect_ms, pinpoint_ms;
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::uint64_t run_ns = 0;
  run_trials(opt, tr, static_cast<int>(kCaseSeeds), [&](int k) {
    for (int r = 0; r < kSetupsPerTrial; ++r) {
      // Set-up: the case-study switch and its first packet (which lowers
      // the pipeline).
      const std::uint64_t t0 = now_ns();
      stat4p4::MonitorApp app = case_study_switch(control::CaseStudyParams{});
      (void)app.sw().process(craft(ipv4(10, 0, 1, 1), 1));
      if (k >= 0 && !tr.on()) {
        setup.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      }
    }
    // The warm-up runs a seed outside the measured cycle.
    const std::uint64_t s =
        k < 0 ? kCaseSeeds : static_cast<std::uint64_t>(k) % kCaseSeeds;
    control::CaseStudyParams p;
    p.seed = opt.seed * 1000 + s;
    const ProducerCpu cpu(static_cast<std::uint64_t>(k + 1));
    tr.begin_window("case_study.seed", static_cast<std::uint64_t>(k + 1));
    tr.to(op_run);
    const std::uint64_t t0 = now_ns();
    const control::CaseStudyOutcome o = control::run_case_study(p);
    const std::uint64_t wall = now_ns() - t0;
    tr.end_window();
    const bool ok = o.drill.done() && !o.false_positive &&
                    o.detection_delay < 2 * p.interval_len &&
                    o.pinpoint_delay > kPinpointMin &&
                    o.pinpoint_delay < kPinpointMax && o.subnet_correct &&
                    o.host_correct;
    ++out.attempted;
    out.fail(ok ? 0 : 1, "case_study: seed " + std::to_string(p.seed) +
                             " late or misidentified");
    if (k < 0) return;
    detect_ms.push_back(static_cast<double>(o.detection_delay) / 1e6);
    pinpoint_ms.push_back(static_cast<double>(o.pinpoint_delay) / 1e6);
    if (tr.on()) {
      pps_traced.push_back(per_s(o.packets_sent, wall));
      events += o.events;
      packets += o.packets_sent;
      run_ns += wall;
      return;
    }
    pps.push_back(per_s(o.packets_sent, wall));
    wall_us.push_back(us(wall));
  });
  if (!opt.trace_path.empty()) {
    // p4sim probes: the case-study app fed its own traffic shape: 1 s of
    // the 25 kpps baseline over the 36 destinations, then 0.2 s with the
    // 10x spike toward one host on top.
    stat4p4::MonitorApp app = case_study_switch(control::CaseStudyParams{});
    tr.set_on(true);
    tr.begin_window("case_study.replay", 0);
    Replay replay(app.sw(), tr);
    const Tracer::OpId op_craft = tr.op("gen.craft");
    for (std::uint64_t slot = 0; slot < 300'000; ++slot) {
      tr.to(op_craft);
      const std::uint64_t t_ns = slot * 4'000;  // 250 kpps of slots
      std::uint32_t dst = 0;
      if (slot % 10 == 0) {
        const std::uint64_t r = mix(opt.seed ^ mix(slot)) % 36;
        dst = ipv4(10, 0, 1 + static_cast<unsigned>(r / 6),
                   1 + static_cast<unsigned>(r % 6));
      } else if (t_ns >= 1'000'000'000) {
        dst = ipv4(10, 0, 3, 4);
      } else {
        continue;
      }
      replay.feed(craft(dst, t_ns + 1));
    }
    tr.end_window();
    replay.report(tr);
    tr.set_on(false);
    tr.value("pps.untraced", median(pps));
    tr.value("pps.traced", median(pps_traced));
    tr.value("netsim.event_ns",
             static_cast<double>(run_ns) /
                 static_cast<double>(std::max<std::uint64_t>(events, 1)));
    tr.value("netsim.events_per_pkt",
             static_cast<double>(events) /
                 static_cast<double>(std::max<std::uint64_t>(packets, 1)));
  }
  const std::string on = basis(wall_us.size(), "experiments");
  out.metrics = {
      {"setup_s", median(setup), "s", basis(setup.size(), "set-ups")},
      {"pps", median(pps), "1/s", on + ", simulated packets per wall s"},
      {"latency_p50_us", median(wall_us), "us",
       on + " of wall time per experiment (start to host named)"},
  };
  out.info.push_back({"experiment_p90_us", quantile(wall_us, 0.9), "us",
                      "p90 over the same experiments"});
  const std::string sim = basis(detect_ms.size(), "experiments") +
                          ", simulated (deterministic per seed)";
  out.info.push_back({"detect_sim_ms", median(detect_ms), "ms", sim});
  out.info.push_back({"pinpoint_sim_ms", median(pinpoint_ms), "ms", sim});
  return out;
}

}  // namespace

Outcome run_workload(const Options& opt, Tracer& tracer) {
  if (opt.workload == "steady") return run_steady(opt, tracer);
  if (opt.workload == "alerts") return run_alerts(opt, tracer);
  if (opt.workload == "netwide") return run_netwide(opt, tracer);
  if (opt.workload == "case_study") return run_case_study(opt, tracer);
  throw std::invalid_argument("bench_e2e: unknown workload '" + opt.workload +
                              "'");
}

}  // namespace e2e
