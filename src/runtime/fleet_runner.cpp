#include "runtime/fleet_runner.hpp"

#include <algorithm>
#include <optional>

#include "p4sim/switch.hpp"
#include "telemetry/telemetry.hpp"

namespace runtime {

namespace {

// Fleet-level metric handles, resolved once (aggregated over every
// FleetRunner instance in the process).
struct FleetMetrics {
  telemetry::Counter& injected;
  telemetry::Counter& delivered;
  telemetry::Counter& dropped;
  telemetry::Counter& digests;
  telemetry::Counter& parks;
  telemetry::Counter& wakes;
  telemetry::Histogram& ring_occupancy;
  telemetry::Histogram& block_stall_ns;
  telemetry::Histogram& digest_latency_ns;

  static FleetMetrics& get() {
    static FleetMetrics m{
        telemetry::MetricsRegistry::global().counter(
            "runtime.fleet.injected"),
        telemetry::MetricsRegistry::global().counter(
            "runtime.fleet.delivered"),
        telemetry::MetricsRegistry::global().counter(
            "runtime.fleet.dropped"),
        telemetry::MetricsRegistry::global().counter(
            "runtime.fleet.digests"),
        telemetry::MetricsRegistry::global().counter(
            "runtime.fleet.parks"),
        telemetry::MetricsRegistry::global().counter(
            "runtime.fleet.wakes"),
        telemetry::MetricsRegistry::global().histogram(
            "runtime.fleet.ring_occupancy"),
        telemetry::MetricsRegistry::global().histogram(
            "runtime.fleet.block_stall_ns"),
        telemetry::MetricsRegistry::global().histogram(
            "runtime.fleet.digest_latency_ns")};
    return m;
  }
};

}  // namespace

FleetRunner::~FleetRunner() {
  if (running_) stop();
}

control::SwitchId FleetRunner::add_switch(p4sim::P4Switch& sw) {
  if (running_) {
    throw stat4::UsageError("runtime: cannot add a switch while running");
  }
  sw.set_exec_tier(cfg_.exec_tier);
  auto lane = std::make_unique<SwitchLane>();
  lane->sw = &sw;
  lane->ring = std::make_unique<SpscRing<p4sim::Packet>>(cfg_.queue_capacity);
  switches_.push_back(std::move(lane));
  return static_cast<control::SwitchId>(switches_.size() - 1);
}

void FleetRunner::worker_loop(control::SwitchId id, SwitchLane& lane) {
  // Packets are drained in bursts (one ring handshake per burst) and run
  // through process_into() with ONE SwitchOutput whose vectors are reused
  // across the whole lane lifetime — no per-packet allocation.  The lane
  // atomics (delivered, digests) are the accounting source of truth and
  // are bumped per packet; the process-wide telemetry counters are a
  // redundant aggregate, so they batch locally and flush at burst
  // boundaries to keep extra shared-line RMWs off the per-packet path.
  //
  // Idle policy is spin -> yield -> park (SpinPolicy): an idle lane parks
  // on its ring instead of burning a spin loop, and inject()/close_input()
  // wake it.
  STAT4_TELEMETRY_ONLY(
      auto& metrics = FleetMetrics::get();
      std::uint64_t t_delivered = 0;
      std::uint64_t t_digests = 0;)
  std::vector<p4sim::Packet> burst;
  burst.reserve(cfg_.drain_burst);
  p4sim::SwitchOutput out;
  unsigned idle = 0;
  while (true) {
    burst.clear();
    const std::size_t n = lane.ring->pop_burst(burst, cfg_.drain_burst);
    if (n != 0) {
      for (std::size_t b = 0; b < n; ++b) {
        lane.sw->process_into(std::move(burst[b]), out);
        for (auto& digest : out.digests) {
          TaggedDigest td{id, std::move(digest), 0};
          // Emit timestamp feeds the emit-to-controller-dequeue latency
          // histogram; the controller side stamps the dequeue.
          STAT4_TELEMETRY_ONLY(td.emit_ns = telemetry::now_ns();
                               ++t_digests;)
          digest_channel_.push(std::move(td));
          lane.digests.fetch_add(1, std::memory_order_relaxed);
        }
        // Release-publish the processed count last, so a flush() observing
        // it also observes the register state and the queued digests.
        lane.delivered.fetch_add(1, std::memory_order_release);
        STAT4_TELEMETRY_ONLY(++t_delivered;)
      }
      STAT4_TELEMETRY_ONLY(
          metrics.delivered.add(t_delivered); t_delivered = 0;
          if (t_digests != 0) {
            metrics.digests.add(t_digests);
            t_digests = 0;
          })
      idle = 0;
      continue;
    }
    if (lane.ring->closed() && lane.ring->empty()) return;
    if (idle < SpinPolicy::kSpins) {
      ++idle;
    } else if (idle < SpinPolicy::kSpins + SpinPolicy::kYields) {
      ++idle;
      std::this_thread::yield();
    } else {
      STAT4_TELEMETRY_ONLY(
          const std::uint64_t t_before = lane.ring->consumer_parks();)
      lane.ring->consumer_park();
      STAT4_TELEMETRY_ONLY(
          const std::uint64_t t_entered =
              lane.ring->consumer_parks() - t_before;
          if (t_entered != 0) {
            metrics.parks.add(t_entered);
            metrics.wakes.add(t_entered);
          })
      idle = 0;
    }
  }
}

void FleetRunner::start() {
  if (running_) throw stat4::UsageError("runtime: fleet already running");
  if (switches_.empty()) {
    throw stat4::UsageError("runtime: no switches registered");
  }
  stop_requested_.store(false, std::memory_order_relaxed);
  for (auto& lane : switches_) {
    lane->ring = std::make_unique<SpscRing<p4sim::Packet>>(cfg_.queue_capacity);
    lane->sent.store(0, std::memory_order_relaxed);
    lane->dropped.store(0, std::memory_order_relaxed);
    lane->delivered.store(0, std::memory_order_relaxed);
    lane->digests.store(0, std::memory_order_relaxed);
  }
  running_ = true;
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    SwitchLane* lane = switches_[i].get();
    switches_[i]->worker =
        std::thread([this, i, lane] {
          worker_loop(static_cast<control::SwitchId>(i), *lane);
        });
  }
}

bool FleetRunner::inject(control::SwitchId sw, p4sim::Packet pkt) {
  auto& metrics = FleetMetrics::get();
  SwitchLane& lane = *switches_.at(sw);
  // `sent` is released BEFORE the push/drop so any observer of a delivery
  // or a drop also observes the send that caused it (see counters()).
  lane.sent.fetch_add(1, std::memory_order_release);
  metrics.injected.add();
  // thread_local gate: producers may inject concurrently on different
  // lanes, and a shared gate atomic would bounce between their caches.
  STAT4_TELEMETRY_ONLY(
      static thread_local telemetry::SampleGate t_occupancy_gate;
      if (t_occupancy_gate.fire(64)) {
        metrics.ring_occupancy.record(lane.ring->size());
      })
  if (lane.ring->closed()) {
    lane.dropped.fetch_add(1, std::memory_order_release);
    metrics.dropped.add();
    return false;
  }
  if (cfg_.policy == Policy::kBlock) {
    // Time the stall only once a push has failed — rare, and exactly the
    // event worth tracing; the unstalled path stays clock-free.
    STAT4_TELEMETRY_ONLY(std::optional<telemetry::SpanTimer> t_stall;)
    lane.ring->push_blocking(std::move(pkt), [&] {
      STAT4_TELEMETRY_ONLY(t_stall.emplace(metrics.block_stall_ns);)
    });
    return true;
  }
  if (!lane.ring->try_push(std::move(pkt))) {
    lane.dropped.fetch_add(1, std::memory_order_release);
    metrics.dropped.add();
    return false;
  }
  return true;
}

void FleetRunner::close_input(control::SwitchId sw) {
  switches_.at(sw)->ring->close();
}

std::size_t FleetRunner::poll_digests() {
  // With no sink installed, digests stay queued — never silently discarded —
  // so a later drain_into() still sees them.
  if (!digest_sink_) return 0;
  std::vector<TaggedDigest> pending;
  digest_channel_.drain(pending);
  STAT4_TELEMETRY_ONLY(record_digest_latency(pending);)
  for (const auto& td : pending) digest_sink_(td.sw, td.digest);
  return pending.size();
}

void FleetRunner::flush() {
  if (!running_) return;
  STAT4_TELEMETRY_ONLY(
      static telemetry::Histogram& t_flush =
          telemetry::MetricsRegistry::global().histogram(
              "runtime.fleet.flush_ns");
      telemetry::SpanTimer t_span(t_flush);)
  Backoff backoff;
  for (auto& lane : switches_) {
    const std::uint64_t accepted =
        lane->sent.load(std::memory_order_relaxed) -
        lane->dropped.load(std::memory_order_relaxed);
    while (lane->delivered.load(std::memory_order_acquire) < accepted) {
      backoff.pause();
    }
    backoff.reset();
  }
}

void FleetRunner::stop() {
  if (!running_) return;
  for (auto& lane : switches_) lane->ring->close();
  for (auto& lane : switches_) {
    if (lane->worker.joinable()) lane->worker.join();
  }
  running_ = false;
  poll_digests();
}

void FleetRunner::drain_into(control::FleetCorrelator& correlator) {
  std::vector<TaggedDigest> pending;
  digest_channel_.drain(pending);
  STAT4_TELEMETRY_ONLY(record_digest_latency(pending);)
  // Controller-side ordering: digests carry switch-side timestamps, and the
  // correlator's event-completion rule assumes it sees them in time order.
  std::stable_sort(pending.begin(), pending.end(),
                   [](const TaggedDigest& a, const TaggedDigest& b) {
                     return a.digest.time < b.digest.time;
                   });
  for (const auto& td : pending) {
    if (digest_sink_) digest_sink_(td.sw, td.digest);
    correlator.ingest(td.sw, td.digest);
  }
}

void FleetRunner::record_digest_latency(
    const std::vector<TaggedDigest>& batch) {
  if (batch.empty()) return;
  auto& metrics = FleetMetrics::get();
  const std::uint64_t now = telemetry::now_ns();
  for (const auto& td : batch) {
    metrics.digest_latency_ns.record(now - td.emit_ns);
  }
}

FleetRunner::Counters FleetRunner::counters(control::SwitchId sw) const {
  const SwitchLane& lane = *switches_.at(sw);
  Counters c;
  // Read order matters for the live invariant: delivered and dropped are
  // read BEFORE sent.  Every delivered packet's sent-increment
  // happens-before its delivered-increment (send -> ring push-release ->
  // pop-acquire -> delivered-release), and every drop's sent-increment
  // precedes its dropped-release; acquiring those counts first therefore
  // guarantees the later sent read covers all of them:
  //   delivered + dropped <= sent   at every instant, from any thread.
  c.digests = lane.digests.load(std::memory_order_acquire);
  c.delivered = lane.delivered.load(std::memory_order_acquire);
  c.dropped = lane.dropped.load(std::memory_order_acquire);
  c.sent = lane.sent.load(std::memory_order_acquire);
  return c;
}

FleetRunner::Counters FleetRunner::totals() const {
  Counters total;
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    const Counters c = counters(static_cast<control::SwitchId>(i));
    total.sent += c.sent;
    total.delivered += c.delivered;
    total.dropped += c.dropped;
    total.digests += c.digests;
  }
  return total;
}

}  // namespace runtime
