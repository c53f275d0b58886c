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
  auto lane = std::make_unique<SwitchLane>();
  lane->sw = &sw;
  lane->ring = make_ring();
  switches_.push_back(std::move(lane));
  return static_cast<control::SwitchId>(switches_.size() - 1);
}

std::unique_ptr<SpscRing<p4sim::Packet>> FleetRunner::make_ring() const {
  // In-place draining holds a burst's slots until it is processed, so the
  // ring carries one burst beyond the queue the producer sees.
  return std::make_unique<SpscRing<p4sim::Packet>>(cfg_.queue_capacity +
                                                   cfg_.drain_burst);
}

void FleetRunner::worker_loop(control::SwitchId id, SwitchLane& lane) {
  // Packets are drained in bursts (one ring handshake per burst) and run
  // through process_into() in their ring slots, with ONE SwitchOutput whose
  // vectors are reused across the whole lane lifetime — no per-packet
  // allocation, and no free: a forwarded packet is moved back into its
  // slot, a dropped one never leaves it, and the producer's next stage()
  // there frees the buffer on the thread that allocated it.  The lane
  // atomics (delivered, digests) are the accounting source of truth and
  // are published once per burst, as are the process-wide telemetry
  // counters.
  //
  // Idle policy is spin -> (idle flag) -> yield -> park, in
  // SpscRing::wait_readable(): an idle lane parks on its ring instead of
  // burning a spin loop, and a publish or close_input() wakes it.
  STAT4_TELEMETRY_ONLY(auto& metrics = FleetMetrics::get();)
  p4sim::SwitchOutput out;
  std::uint64_t burst_digests = 0;
  const auto process = [&](p4sim::Packet& slot) {
    lane.sw->process_into(std::move(slot), out);
    for (auto& digest : out.digests) {
      TaggedDigest td{id, std::move(digest), 0};
      // Emit timestamp feeds the emit-to-controller-dequeue latency
      // histogram; the controller side stamps the dequeue.
      STAT4_TELEMETRY_ONLY(td.emit_ns = telemetry::now_ns();)
      digest_channel_.push(std::move(td));
    }
    burst_digests += out.digests.size();
    if (!out.packets.empty()) slot = std::move(out.packets.front().second);
  };
  IdleStats idle;
  while (lane.ring->wait_readable(idle)) {
    STAT4_TELEMETRY_ONLY(
        if (idle.parks != 0) {
          metrics.parks.add(idle.parks);
          metrics.wakes.add(idle.parks);
          idle.parks = 0;
        })
    burst_digests = 0;
    const std::size_t n = lane.ring->consume_burst(cfg_.drain_burst, process);
    if (burst_digests != 0) {
      lane.digests.fetch_add(burst_digests, std::memory_order_relaxed);
      STAT4_TELEMETRY_ONLY(metrics.digests.add(burst_digests);)
    }
    // Release-publish the processed count last, so a flush() observing it
    // also observes the register state and the queued digests.
    lane.delivered.fetch_add(n, std::memory_order_release);
    STAT4_TELEMETRY_ONLY(metrics.delivered.add(n);)
  }
}

void FleetRunner::start() {
  if (running_) throw stat4::UsageError("runtime: fleet already running");
  if (switches_.empty()) {
    throw stat4::UsageError("runtime: no switches registered");
  }
  stop_requested_.store(false, std::memory_order_relaxed);
  for (auto& lane : switches_) {
    lane->ring = make_ring();
    lane->producer.store(std::thread::id{}, std::memory_order_relaxed);
    lane->sent.store(0, std::memory_order_relaxed);
    lane->dropped.store(0, std::memory_order_relaxed);
    lane->delivered.store(0, std::memory_order_relaxed);
    lane->digests.store(0, std::memory_order_relaxed);
  }
  // Never stage more than half a ring: the lane keeps the other half to
  // chew on while the producer fills the stage.
  stage_limit_ = std::max<std::size_t>(
      1, std::min(cfg_.drain_burst, switches_.front()->ring->capacity() / 2));
  running_ = true;
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    SwitchLane* lane = switches_[i].get();
    switches_[i]->worker =
        std::thread([this, i, lane] {
          worker_loop(static_cast<control::SwitchId>(i), *lane);
        });
  }
}

void FleetRunner::count_sent(SwitchLane& lane, std::uint64_t n) {
  // One writer: a plain read-modify-write, released so any observer of a
  // delivery or a drop also observes the send that caused it.
  lane.sent.store(lane.sent.load(std::memory_order_relaxed) + n,
                  std::memory_order_release);
  FleetMetrics::get().injected.add(n);
}

void FleetRunner::publish(SwitchLane& lane) {
  const std::size_t n = lane.ring->staged();
  if (n == 0) return;
  count_sent(lane, n);  // before the lane can see (and deliver) the burst
  lane.ring->publish();
}

void FleetRunner::publish_own_lanes() {
  const std::thread::id me = std::this_thread::get_id();
  for (auto& lane : switches_) {
    if (lane->producer.load(std::memory_order_relaxed) == me) publish(*lane);
  }
}

bool FleetRunner::inject(control::SwitchId sw, p4sim::Packet pkt) {
  auto& metrics = FleetMetrics::get();
  SwitchLane& lane = *switches_.at(sw);
  const std::thread::id me = std::this_thread::get_id();
  if (lane.producer.load(std::memory_order_relaxed) != me) {
    lane.producer.store(me, std::memory_order_relaxed);
  }
  // thread_local gate: producers may inject concurrently on different
  // lanes, and a shared gate atomic would bounce between their caches.
  STAT4_TELEMETRY_ONLY(
      static thread_local telemetry::SampleGate t_occupancy_gate;
      if (t_occupancy_gate.fire(64)) {
        metrics.ring_occupancy.record(lane.ring->size());
      })
  SpscRing<p4sim::Packet>& ring = *lane.ring;
  bool staged = !ring.closed();
  if (staged && cfg_.policy == Policy::kBlock) {
    // Time the stall only once a stage is refused — rare, and exactly the
    // event worth tracing; the unstalled path stays clock-free.  The ring
    // publishes the stage before it waits, so count it sent first.
    STAT4_TELEMETRY_ONLY(std::optional<telemetry::SpanTimer> t_stall;)
    ring.stage_blocking(std::move(pkt), [&] {
      count_sent(lane, ring.staged());
      STAT4_TELEMETRY_ONLY(t_stall.emplace(metrics.block_stall_ns);)
    });
  } else if (staged) {
    staged = ring.stage(std::move(pkt));
  }
  if (!staged) {
    count_sent(lane, 1);
    lane.dropped.store(lane.dropped.load(std::memory_order_relaxed) + 1,
                       std::memory_order_release);
    metrics.dropped.add();
    return false;
  }
  if (ring.staged() >= stage_limit_ || ring.consumer_idle()) publish(lane);
  return true;
}

void FleetRunner::close_input(control::SwitchId sw) {
  SwitchLane& lane = *switches_.at(sw);
  publish(lane);
  lane.ring->close();
}

std::size_t FleetRunner::poll_digests() {
  publish_own_lanes();
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
  publish_own_lanes();
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
  for (auto& lane : switches_) {
    publish(*lane);
    lane->ring->close();
  }
  for (auto& lane : switches_) {
    if (lane->worker.joinable()) lane->worker.join();
  }
  running_ = false;
  poll_digests();
}

void FleetRunner::drain_into(control::FleetCorrelator& correlator) {
  publish_own_lanes();
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
  // happens-before its delivered-increment (sent-release -> ring
  // publish -> consume-acquire -> delivered-release), and every drop's
  // sent-increment precedes its dropped-release; acquiring those counts
  // first therefore guarantees the later sent read covers all of them:
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
