// FleetRunner: each emulated switch on its own worker thread.
//
// The paper's Figure 1c architecture at fleet scale: many switches process
// traffic independently at line rate and only their anomaly digests travel
// to the controller.  FleetRunner reproduces exactly that concurrency
// structure — one worker thread per registered MonitorApp switch, fed by a
// bounded SPSC packet ring, with all digests funneled through one MPSC
// channel to the controller side (typically a control::FleetCorrelator).
//
// The hop between a producer and its lane is batched at both ends.
// inject() stages the packet in the lane's ring (SpscRing::stage) and
// publishes the stage — one seq_cst head store for the whole run — at
// fixed points: when Config::drain_burst packets are staged (never more
// than half the ring), as soon as the lane has spun out on an empty ring
// (its idle flag), when a kBlock inject finds the ring full, and from
// flush()/poll_digests()/drain_into() (for the lanes the calling thread
// feeds), close_input() and stop().  inject() reads no clock.  The lane
// runs each packet through the switch IN ITS RING SLOT and leaves the
// buffer there (a forwarded packet is moved back out of the SwitchOutput,
// a dropped one never leaves), so the producer's next stage() into that
// slot frees it on the thread that allocated it.  The ring therefore holds
// queue_capacity + drain_burst packets: a burst's slots stay occupied
// while the lane processes it, and the producer still sees queue_capacity.
//
// Backpressure: by default a packet arriving at a full ring is DROPPED and
// counted, the way a congested switch sheds load; Policy::kBlock instead
// waits until space frees up (lossless, for replay workloads where every
// packet must be observed).  Accounting invariant, enforced by
// tests/fleet_runner_test.cpp:  sent == delivered + dropped  per switch
// after flush() or stop(), where `sent` counts packets published to the
// lane or dropped (a staged packet is not sent yet).
//
// Shutdown protocol (safe under racing producers):
//   1. producers observe stop_requested() — or simply finish — and each
//      calls close_input(sw) for the switches it feeds (close_input must be
//      the LAST call that producer makes for that switch);
//   2. workers drain their rings and exit on closed-and-empty;
//   3. the control thread calls stop(), which joins the workers and drains
//      the final digests.
// For the common single-producer case (the control thread feeds all
// switches itself), flush()/stop() from that thread is all that is needed.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "control/fleet.hpp"
#include "p4sim/packet.hpp"
#include "runtime/mpsc_channel.hpp"
#include "runtime/spsc_ring.hpp"
#include "stat4p4/apps.hpp"

namespace runtime {

class FleetRunner {
 public:
  enum class Policy : std::uint8_t {
    kDrop,   ///< full ring: drop the packet, count it (switch under load)
    kBlock,  ///< full ring: backpressure-spin (lossless replay)
  };

  struct Config {
    std::size_t queue_capacity = 1024;  ///< per-switch ingress ring, packets
    Policy policy = Policy::kDrop;
    /// Max packets a worker drains from its ring per wakeup, and max
    /// packets inject() stages before it publishes (one ring handshake per
    /// burst at each end; the reused SwitchOutput keeps allocations off the
    /// per-packet path).  1 degenerates to per-packet publish and drain.
    std::size_t drain_burst = 64;
  };

  struct Counters {
    std::uint64_t sent = 0;       ///< packets published to the lane + dropped
    std::uint64_t delivered = 0;  ///< packets processed by the switch
    std::uint64_t dropped = 0;    ///< shed at a full or closed ring
    std::uint64_t digests = 0;    ///< digests the switch emitted
  };

  FleetRunner() = default;
  explicit FleetRunner(Config cfg) : cfg_(cfg) {
    if (cfg_.drain_burst == 0) cfg_.drain_burst = 1;  // a lane must progress
  }
  ~FleetRunner();

  FleetRunner(const FleetRunner&) = delete;
  FleetRunner& operator=(const FleetRunner&) = delete;

  /// Register a switch; `sw` must outlive the runner.  All switches must be
  /// registered before start().  Any P4Switch works — MonitorApp, EchoApp
  /// and the sketch apps all run under the same worker/ring/digest plumbing.
  control::SwitchId add_switch(p4sim::P4Switch& sw);
  control::SwitchId add_switch(stat4p4::MonitorApp& app) {
    return add_switch(app.sw());
  }

  [[nodiscard]] std::size_t switch_count() const noexcept {
    return switches_.size();
  }

  /// Tagged digests go to the sink on the thread that calls poll_digests()/
  /// flush()/stop()/drain_into() — never on a worker thread.
  void set_digest_sink(
      std::function<void(control::SwitchId, const p4sim::Digest&)> sink) {
    digest_sink_ = std::move(sink);
  }

  void start();
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// Stage one packet for `sw` (exactly one producer thread per switch at
  /// a time; the lane records it).  Returns false — and counts a drop —
  /// when the ring is full under Policy::kDrop, or when the switch's input
  /// was already closed.  A staged packet is published at the points listed
  /// in the header comment; an idle lane gets it without any further call.
  bool inject(control::SwitchId sw, p4sim::Packet pkt);

  /// Cooperative-stop flag for producer threads.
  void request_stop() noexcept {
    stop_requested_.store(true, std::memory_order_release);
  }
  [[nodiscard]] bool stop_requested() const noexcept {
    return stop_requested_.load(std::memory_order_acquire);
  }

  /// End-of-stream for one switch; called by that switch's producer as its
  /// last action (publishes its stage first).  Idempotent.
  void close_input(control::SwitchId sw);

  /// Publish the calling thread's lanes, then deliver queued digests to the
  /// sink; returns how many.  Single-consumer: call from one (control)
  /// thread only.  With no sink installed nothing is delivered — digests
  /// stay queued for drain_into() rather than being silently discarded.
  std::size_t poll_digests();

  /// Barrier: all packets injected so far are processed and their digests
  /// queued.  Publishes the lanes the calling thread feeds, then waits for
  /// every published packet.  Delivery is separate — follow with
  /// poll_digests() (sink, in arrival order) or drain_into() (correlator,
  /// in time order).  Only meaningful from the (sole) producer thread,
  /// whose own counters define "so far".
  void flush();

  /// Publish and close every input, join all workers, deliver remaining
  /// digests.  Producers must have stopped injecting (inject() after close
  /// is a counted drop, so a straggler cannot corrupt the accounting).
  void stop();

  /// Drain pending digests — sorted by switch-side timestamp, the order the
  /// controller would see them in — into a correlator.  Publishes the
  /// calling thread's lanes but does not flush().
  void drain_into(control::FleetCorrelator& correlator);

  /// Live snapshot, safe from ANY thread while the fleet runs (the
  /// telemetry Reporter polls this).  Each field is exact; the four reads
  /// are not one atomic cut, but the read order guarantees the weak
  /// invariant  delivered + dropped <= sent  at every instant, with
  /// equality whenever the lane is quiescent (e.g. behind flush()).
  [[nodiscard]] Counters counters(control::SwitchId sw) const;
  [[nodiscard]] Counters totals() const;

 private:
  struct SwitchLane {
    p4sim::P4Switch* sw = nullptr;
    std::unique_ptr<SpscRing<p4sim::Packet>> ring;
    std::thread worker;
    // Producer side.  `producer` is the thread that last injected, so a
    // flush()/poll_digests() caller publishes only the stages it owns.
    // sent/dropped have one writer (the lane's producer, or stop() once
    // producers are done) but concurrent readers; release stores + acquire
    // loads give counters() its ordering guarantee (sent is bumped before a
    // burst is published or a packet dropped, so a reader that sees the
    // effect also sees the cause).
    alignas(64) std::atomic<std::thread::id> producer{};
    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> dropped{0};
    // Lane side: one release add per drained burst.
    alignas(64) std::atomic<std::uint64_t> delivered{0};
    std::atomic<std::uint64_t> digests{0};
  };

  struct TaggedDigest {
    control::SwitchId sw = 0;
    p4sim::Digest digest;
    std::uint64_t emit_ns = 0;  ///< telemetry::now_ns() at worker emit
  };

  [[nodiscard]] std::unique_ptr<SpscRing<p4sim::Packet>> make_ring() const;
  void worker_loop(control::SwitchId id, SwitchLane& lane);
  /// Count the lane's stage as sent, then make it visible to the lane.
  void publish(SwitchLane& lane);
  /// Adds `n` packets about to be published (or dropped) to `sent`.
  static void count_sent(SwitchLane& lane, std::uint64_t n);
  /// publish() every lane whose recorded producer is the calling thread.
  void publish_own_lanes();
  /// Feeds the emit-to-dequeue histogram from a freshly drained batch.
  static void record_digest_latency(const std::vector<TaggedDigest>& batch);

  Config cfg_{};
  std::size_t stage_limit_ = 1;  ///< drain_burst, at most half a ring
  std::vector<std::unique_ptr<SwitchLane>> switches_;
  MpscChannel<TaggedDigest> digest_channel_;
  std::function<void(control::SwitchId, const p4sim::Digest&)> digest_sink_;
  std::atomic<bool> stop_requested_{false};
  bool running_ = false;
};

}  // namespace runtime
