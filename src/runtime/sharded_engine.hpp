// ShardedEngine: the Stat4Engine partitioned across worker threads.
//
// The paper's pipeline parallelism comes for free in hardware: every P4
// stage owns its register arrays exclusively, so distributions in different
// stages never contend.  ShardedEngine reproduces that ownership model in
// software: each distribution is assigned to exactly one shard at creation,
// each shard is a private single-threaded Stat4Engine, and a packet is
// delivered to every shard, where only the bindings whose distributions the
// shard owns are walked.  Total binding work across shards therefore equals
// the single-threaded engine's work, but it proceeds in parallel with no
// locks on the packet path (per-shard SPSC rings; see spsc_ring.hpp).
//
// Equivalence guarantee: for any shard count, after flush() the per-
// distribution statistics are bit-identical to a single Stat4Engine fed the
// same packet sequence, and the alert multiset (ignoring the sequence
// number, which reflects cross-shard arrival order) is identical — each
// distribution sees exactly the packet subsequence that matches its
// bindings, in order, because a shard's ring is FIFO and a distribution
// never spans shards.  tests/sharded_differential_test.cpp enforces this.
//
// Threading modes:
//   * synchronous (default): process()/advance_time() run all shards inline
//     on the calling thread — same semantics, zero threads;
//   * threaded: start() spawns one worker per shard; submit()/
//     submit_advance() enqueue (single producer thread!), flush() is a
//     barrier after which statistics may be read, stop() flushes and joins.
//
// Batched ingestion (the hot path): submit() stages the op in every
// shard's ring (SpscRing::stage, the same staging FleetRunner uses); every
// batch_size ops (at most half a ring) each ring publishes its stage with
// one head store, and workers drain whole bursts into
// Stat4Engine::process_batch().  Order within the single producer is
// preserved, so the equivalence guarantee is unchanged.  flush()/stop()
// first publish every ring, so callers never see a partial batch.
// batch_size = 1 degenerates to the per-packet pipeline.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/mpsc_channel.hpp"
#include "runtime/spsc_ring.hpp"
#include "stat4/engine.hpp"

namespace runtime {

class ShardedEngine {
 public:
  explicit ShardedEngine(std::size_t shards,
                         stat4::OverflowPolicy policy =
                             stat4::OverflowPolicy::kThrow,
                         std::size_t queue_capacity = 4096,
                         std::size_t batch_size = kDefaultBatchSize);
  ~ShardedEngine();

  /// Ops staged per shard ring before a publish (and the max ops a worker
  /// drains per wakeup).  256 amortizes the ring handshake
  /// to noise while keeping worst-case added latency one batch deep.
  static constexpr std::size_t kDefaultBatchSize = 256;

  /// Change the ingestion batch size.  Call while stopped (the producer's
  /// publish threshold and the worker drain loops both read it).
  void set_batch_size(std::size_t batch_size);
  [[nodiscard]] std::size_t batch_size() const noexcept {
    return batch_size_;
  }

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // --- distribution management (global DistId space) -----------------------
  // Mirrors Stat4Engine; ids are round-robin assigned to shards.
  stat4::DistId add_freq_dist(std::size_t domain_size);
  stat4::DistId add_sliding_freq_dist(std::size_t domain_size,
                                      std::size_t window);
  stat4::DistId add_interval_window(std::size_t num_intervals,
                                    stat4::TimeNs interval_len,
                                    unsigned k_sigma = 2);
  stat4::DistId add_value_stats();

  void enable_spike_check(stat4::DistId id, std::size_t min_history = 8);
  void enable_stall_check(stat4::DistId id, std::size_t min_history = 8);
  void enable_value_outlier_check(stat4::DistId id, stat4::Count min_n = 32);
  void enable_imbalance_check(stat4::DistId id, stat4::Count min_total = 32);
  void rearm(stat4::DistId id);

  /// The binding's entry.dist is a *global* id; it is rewritten to the
  /// owning shard's local id internally.
  stat4::BindingId add_binding(const stat4::BindingEntry& entry);

  // --- introspection (requires flush() first in threaded mode) -------------
  [[nodiscard]] const stat4::FreqDist& freq(stat4::DistId id) const;
  [[nodiscard]] const stat4::SlidingFreqDist& sliding(stat4::DistId id) const;
  [[nodiscard]] const stat4::IntervalWindow& window(stat4::DistId id) const;
  [[nodiscard]] const stat4::RunningStats& values(stat4::DistId id) const;
  [[nodiscard]] stat4::FreqDist& freq(stat4::DistId id);

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::size_t shard_of(stat4::DistId id) const;
  [[nodiscard]] std::size_t distribution_count() const noexcept {
    return dist_map_.size();
  }
  [[nodiscard]] std::uint64_t alerts_emitted() const noexcept {
    return alert_seq_.load(std::memory_order_acquire);
  }

  /// Alerts carry global dist ids.  In threaded mode the sink runs on the
  /// flush()/stop() caller's thread; in synchronous mode, inline.
  void set_alert_sink(std::function<void(const stat4::Alert&)> sink) {
    alert_sink_ = std::move(sink);
  }

  // --- synchronous data path ------------------------------------------------
  void process(const stat4::PacketFields& pkt);
  void advance_time(stat4::TimeNs now);

  // --- threaded data path ---------------------------------------------------
  /// Spawns one worker thread per shard.  After start(), use submit*() from
  /// ONE producer thread only (the rings are SPSC).
  void start();
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// Enqueue a packet to every shard (staged; becomes visible to workers at
  /// the next batch boundary or flush()).  Lossless: backpressure-parks
  /// when a shard's ring is full (the engine must not drop, or it would
  /// diverge from the single-threaded reference).  Park episodes are
  /// counted so callers can observe backpressure.
  void submit(const stat4::PacketFields& pkt);
  void submit_advance(stat4::TimeNs now);

  /// Barrier: returns once every enqueued operation has been processed, and
  /// drains pending alerts to the sink.  Establishes the happens-before edge
  /// that makes the introspection accessors safe to call.
  void flush();

  /// flush(), then join all workers.  The engine returns to synchronous
  /// mode and may be start()ed again.
  void stop();

  /// Times an enqueue found a shard ring full and had to backpressure-wait
  /// (spin/yield/park) for the worker to drain it.
  [[nodiscard]] std::uint64_t backpressure_waits() const noexcept {
    return backpressure_waits_.load(std::memory_order_relaxed);
  }

 private:
  struct Op {
    stat4::PacketFields pkt{};
    stat4::TimeNs advance_to = -1;  ///< >= 0: advance_time op, pkt unused
  };

  struct Shard {
    std::unique_ptr<stat4::Stat4Engine> engine;
    std::unique_ptr<SpscRing<Op>> ring;
    std::vector<stat4::DistId> global_of_local;  ///< local DistId -> global
    std::thread worker;
    alignas(64) std::atomic<std::uint64_t> processed{0};
  };

  struct DistRef {
    std::size_t shard = 0;
    stat4::DistId local = 0;
  };

  stat4::Stat4Engine& engine_of(stat4::DistId id);
  const stat4::Stat4Engine& engine_of(stat4::DistId id) const;
  [[nodiscard]] const DistRef& ref(stat4::DistId id) const;
  stat4::DistId register_dist(std::size_t shard, stat4::DistId local);
  /// Stage `op` in every shard ring (parking on backpressure), and publish
  /// them all once stage_limit_ ops are staged.
  void enqueue(const Op& op);
  /// Make every shard ring's stage visible to its worker.
  void publish_rings();
  void worker_loop(Shard& shard);
  void drain_alerts();

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<DistRef> dist_map_;  ///< global DistId -> (shard, local)
  std::size_t next_shard_ = 0;     ///< round-robin distribution placement
  std::function<void(const stat4::Alert&)> alert_sink_;
  MpscChannel<stat4::Alert> alert_channel_;
  std::atomic<std::uint64_t> alert_seq_{0};
  std::size_t queue_capacity_;
  std::size_t batch_size_;
  std::size_t stage_limit_ = 1;    ///< batch_size_, at most half a ring
  std::uint64_t submitted_ = 0;    ///< ops enqueued to every shard this run
  std::uint64_t published_ops_ = 0;  ///< submitted_ at the last publish
  bool running_ = false;
  std::atomic<std::uint64_t> backpressure_waits_{0};
  // Telemetry sampling tick for ring publishes (plain: single producer
  // thread by contract; dead in telemetry-off builds).
  std::uint32_t t_enqueue_tick_ = 0;
};

}  // namespace runtime
