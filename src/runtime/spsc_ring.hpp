// Bounded single-producer / single-consumer ring buffer with staged,
// burst-published I/O.
//
// The packet channel between a traffic source and a FleetRunner lane (one
// emulated switch's worker thread).  The discipline mirrors a switch
// ingress queue: exactly one producer (the wire) and one consumer (the
// pipeline), a fixed capacity, and a hot path that never takes a lock —
// head and tail are single-writer atomics with acquire/release pairing, so
// stages and drains are wait-free.  When the queue is full the *caller*
// decides between dropping (stage() refuses and the caller counts the
// drop, like a switch under load) and backpressure (stage_blocking() waits
// for room, for lossless replay); FleetRunner's Policy picks one.
//
// Every transfer is built on three calls, so the ring has one publish path
// and one release path (the control-variable batching of MCRingBuffer,
// Lee et al., IPDPS 2010):
//   * stage(item) moves an item into its slot but leaves it invisible
//     (stage_blocking() first waits for a free slot);
//   * publish() makes everything staged visible with ONE seq_cst head store
//     and one wake check;
//   * consume_burst(max, fn) runs `fn` on up to `max` published items IN
//     THEIR SLOTS, then frees the slots with ONE tail store and one wake
//     check.
// A single-item push is one stage() and one publish().  Batching the
// cursor stores amortizes both the atomic handshake and the cache-line
// ping-pong between the head and tail lines across the burst.
//
// Buffer locality: whatever `fn` leaves in a slot stays there until the
// producer's next stage() into that slot assigns over it — so an item that
// owns heap memory (a Packet's byte buffer) is destroyed on the producer's
// thread, the thread that allocated it, or by the ring's destructor.  A
// consumer that processes in place and moves nothing out therefore frees
// nothing the producer allocated.  In exchange a burst's slots stay
// occupied until the whole burst is processed: size the ring for the queue
// the producer should see plus one drain burst.
//
// Waiting is adaptive: spin → yield → park (SpinPolicy; one consumer-wait
// helper, wait_readable(), serves every worker loop).  Parking uses C++20
// atomic wait/notify on a per-side signal counter (bumped by every wake,
// so the waiter always observes progress — notifying an unchanged cursor
// would just re-block), gated by a waiter flag.  The flag handshake is the
// classic Dekker store/load pattern: the parker's flag store + cursor
// reload and the waker's cursor publish + flag load are all seq_cst, so in
// the single total order one side must see the other (no lost wakeup).
// Seq_cst accesses (rather than release/acquire + seq_cst fences) keep the
// protocol fully visible to TSan, and on x86 cost the same as the fence
// they replace; the non-contended path pays one such store+load per burst.
// The consumer's park episodes and empty polls accumulate in the IdleStats
// its caller passes to wait_readable(), so a lane's stalls are observable.
// When the consumer stops spinning it also raises an idle flag
// (consumer_idle()): a producer that holds staged items reads it to publish
// at once instead of waiting for a full stage.
//
// `close()` is part of the shutdown protocol and must be called by the
// producer thread (or after the producer has provably stopped), after its
// last publish(): the consumer drains until `closed() && empty()`, so an
// item published after close would race with consumer exit.  close() wakes
// a parked consumer.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "stat4/types.hpp"

namespace runtime {

/// Progressive backoff for spin loops: spin, then yield, then micro-sleep.
/// Used for waits with no single atomic to park on (e.g. flush barriers
/// watching several counters).  Keeps tests responsive even on single-core
/// machines, where a pure spin would starve the thread it is waiting on
/// until the scheduler preempts.
class Backoff {
 public:
  void pause() {
    if (spins_ < 64) {
      ++spins_;
    } else if (spins_ < 256) {
      ++spins_;
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  void reset() noexcept { spins_ = 0; }

 private:
  unsigned spins_ = 0;
};

/// The spin→yield→park thresholds shared by both sides of the ring.  A
/// waiter spins kSpins times (cheap, latency-optimal when work is
/// imminent), yields kYields times (lets a same-core peer run), then parks
/// until the other side publishes — so an idle worker costs the scheduler
/// nothing instead of spinning 44k+ times per quiet period.
struct SpinPolicy {
  static constexpr unsigned kSpins = 128;
  static constexpr unsigned kYields = 16;
};

/// What a consumer's waits cost, accumulated by SpscRing::wait_readable().
struct IdleStats {
  std::uint64_t polls = 0;  ///< empty polls in the spin and yield phases
  std::uint64_t parks = 0;  ///< park episodes (each ended by one wake)
};

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two (index masking instead of
  /// modulo).  One slot is sacrificed to distinguish full from empty, so the
  /// usable capacity is at least `min_capacity`.
  explicit SpscRing(std::size_t min_capacity) {
    std::size_t cap = 2;
    while (cap < min_capacity + 1) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  // ------------------------------------------------------------- producer

  /// Moves `item` into the next free slot WITHOUT publishing it: neither
  /// the consumer nor empty()/size() can see it until publish().  Returns
  /// false, leaving `item` untouched, when published plus staged items fill
  /// the ring.  The move assignment destroys whatever the consumer left in
  /// the slot, here on the producer's thread.
  bool stage(T&& item) { return stage_from(item); }

  /// Makes every staged item visible to the consumer: one seq_cst head
  /// store, one wake check.  A no-op when nothing is staged.
  void publish() noexcept {
    if (stage_head_ == published_) return;
    published_ = stage_head_;
    // seq_cst publish: Dekker-pairs with consumer_park (see wake_consumer).
    head_.store(published_, std::memory_order_seq_cst);
    wake_consumer();
  }

  /// Items staged and not yet published (producer thread only).
  [[nodiscard]] std::size_t staged() const noexcept {
    return (stage_head_ - published_) & mask_;
  }

  /// stage(), waiting for room while the ring is full: the first time a
  /// stage is refused it calls `on_full()` (never on the uncontended path;
  /// FleetRunner starts its stall timer there), then publish()es (the
  /// consumer can only free slots it can see) and waits spin → yield →
  /// park until the consumer frees a slot.  Every retry offers the same
  /// `item`, and it is moved into the ring once.  The item stays staged.
  template <typename OnFull>
  void stage_blocking(T&& item, OnFull&& on_full) {
    if (stage_from(item)) return;
    on_full();
    publish();
    unsigned tries = 0;
    while (!stage_from(item)) {
      if (tries < SpinPolicy::kSpins) {
        ++tries;
      } else if (tries < SpinPolicy::kSpins + SpinPolicy::kYields) {
        ++tries;
        std::this_thread::yield();
      } else {
        producer_park();
        tries = 0;
      }
    }
  }

  // ------------------------------------------------------------- consumer

  /// Runs `fn(T&)` on up to `max` published items, oldest first, in their
  /// slots; then frees those slots with one tail store and one wake check.
  /// Returns how many items it ran (0 when nothing is published).  `fn` may
  /// move an item out or leave it; what it leaves is destroyed by the
  /// producer's next stage() into that slot.  The slots stay occupied until
  /// `fn` has run on the whole burst.
  template <typename Fn>
  std::size_t consume_burst(std::size_t max, Fn&& fn) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t avail = (head_cache_ - tail) & mask_;
    if (avail < max) {
      head_cache_ = head_.load(std::memory_order_acquire);
      avail = (head_cache_ - tail) & mask_;
      if (avail == 0) return 0;
    }
    const std::size_t take = std::min(avail, max);
    for (std::size_t i = 0; i < take; ++i) fn(slots_[(tail + i) & mask_]);
    tail_.store((tail + take) & mask_, std::memory_order_seq_cst);
    wake_producer();
    return take;
  }

  /// Consumer side: returns true as soon as published items wait, false
  /// once the ring is closed and drained.  An empty ring is polled
  /// SpinPolicy::kSpins times; then the idle flag goes up (consumer_idle()),
  /// the consumer yields kYields times, and then parks until the producer
  /// publishes or closes.  The flag comes down when items arrive.  `stats`
  /// accumulates the empty polls and the park episodes.
  bool wait_readable(IdleStats& stats) {
    unsigned tries = 0;
    while (!readable()) {
      if (closed_.load(std::memory_order_acquire) && !readable()) {
        return false;
      }
      if (tries < SpinPolicy::kSpins) {
        ++tries;
        ++stats.polls;
        continue;
      }
      if (!idle_raised_) {
        idle_raised_ = true;
        consumer_idle_.store(1, std::memory_order_relaxed);
      }
      if (tries < SpinPolicy::kSpins + SpinPolicy::kYields) {
        ++tries;
        ++stats.polls;
        std::this_thread::yield();
      } else {
        if (consumer_park()) ++stats.parks;
        tries = 0;
      }
    }
    if (idle_raised_) {
      idle_raised_ = false;
      consumer_idle_.store(0, std::memory_order_relaxed);
    }
    return true;
  }

  /// Consumer side: park until the producer publishes items or closes the
  /// ring.  Call only after spinning found the ring empty.  Returns
  /// immediately — and false — when items or close() raced in; true after
  /// a park episode.
  ///
  /// The wait is on a dedicated signal counter, NOT on the head cursor:
  /// std::atomic::wait re-blocks while the waited value is unchanged, and
  /// close() changes no cursor — so a wake must always bump the value it
  /// notifies.  (A spurious bump from a stale waiter-flag read is harmless:
  /// the parker rechecks and re-parks.)
  bool consumer_park() {
    const std::uint32_t sig = consumer_signal_.load(std::memory_order_relaxed);
    consumer_waiting_.store(1, std::memory_order_seq_cst);
    // Recheck AFTER the flag store in the seq_cst order: either we see the
    // new head/close, or the producer's wake_consumer() sees the flag and
    // bumps the signal (one of the two must hold — see the class comment).
    const bool park = head_.load(std::memory_order_seq_cst) ==
                          tail_.load(std::memory_order_relaxed) &&
                      !closed_.load(std::memory_order_seq_cst);
    if (park) consumer_signal_.wait(sig, std::memory_order_relaxed);
    consumer_waiting_.store(0, std::memory_order_relaxed);
    return park;
  }

  // ------------------------------------------------------------- shutdown

  /// Producer-side end-of-stream marker (see the class comment for the
  /// shutdown protocol).  Wakes a parked consumer so it can observe the
  /// close and drain out.
  void close() noexcept {
    closed_.store(true, std::memory_order_seq_cst);
    if (consumer_waiting_.load(std::memory_order_seq_cst) != 0) {
      consumer_signal_.fetch_add(1, std::memory_order_relaxed);
      consumer_signal_.notify_one();
    }
  }
  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

  // ---------------------------------------------------------- observation

  /// True while the consumer has spun out on an empty ring (see
  /// wait_readable()), and on a fresh ring until its consumer first finds
  /// items: a producer holding staged items should publish now.  A hint,
  /// read without ordering; the consumer writes it only when it starts or
  /// stops idling.
  [[nodiscard]] bool consumer_idle() const noexcept {
    return consumer_idle_.load(std::memory_order_relaxed) != 0;
  }

  /// No published item is waiting (staged items do not count).
  [[nodiscard]] bool empty() const noexcept {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  /// Approximate published occupancy for telemetry: the two loads are not
  /// a consistent pair under concurrency, but each is exact, so the result
  /// is always within one in-flight burst of a true past occupancy.
  [[nodiscard]] std::size_t size() const noexcept {
    const std::size_t h = head_.load(std::memory_order_acquire);
    const std::size_t t = tail_.load(std::memory_order_acquire);
    return (h - t) & mask_;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_; }

 private:
  /// The stage: moves from `item` only when there is room; a full ring
  /// leaves `item` untouched.
  bool stage_from(T& item) {
    const std::size_t next = (stage_head_ + 1) & mask_;
    if (next == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (next == tail_cache_) return false;
    }
    slots_[stage_head_] = std::move(item);
    stage_head_ = next;
    return true;
  }

  /// Consumer side: a published item waits (refreshes the cached head when
  /// the cached view is drained).
  bool readable() noexcept {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (head_cache_ != tail) return true;
    head_cache_ = head_.load(std::memory_order_acquire);
    return head_cache_ != tail;
  }

  /// Producer side: park until the consumer frees a slot (returns at once
  /// when one already is).  The close() flag is producer-owned, so only
  /// tail movement can wake us.  Same signal-counter protocol as
  /// consumer_park().
  void producer_park() {
    const std::uint32_t sig = producer_signal_.load(std::memory_order_relaxed);
    producer_waiting_.store(1, std::memory_order_seq_cst);
    if (((stage_head_ + 1) & mask_) == tail_.load(std::memory_order_seq_cst)) {
      producer_signal_.wait(sig, std::memory_order_relaxed);
    }
    producer_waiting_.store(0, std::memory_order_relaxed);
  }

  /// Called after every head publish.  The seq_cst head store + seq_cst
  /// flag load Dekker-pair with consumer_park's flag store / head reload,
  /// so a consumer can never park after missing the publish that should
  /// have woken it: were the parker to miss the head store AND the waker to
  /// miss the flag, the single seq_cst order would have to contain the
  /// cycle flag-store < head-load < head-store < flag-load < flag-store.
  void wake_consumer() noexcept {
    if (consumer_waiting_.load(std::memory_order_seq_cst) != 0) {
      consumer_signal_.fetch_add(1, std::memory_order_relaxed);
      consumer_signal_.notify_one();
    }
  }

  void wake_producer() noexcept {
    if (producer_waiting_.load(std::memory_order_seq_cst) != 0) {
      producer_signal_.fetch_add(1, std::memory_order_relaxed);
      producer_signal_.notify_one();
    }
  }

  std::vector<T> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};  ///< published; producer-owned
  alignas(64) std::size_t stage_head_ = 0;        ///< producer: next to stage
  std::size_t published_ = 0;                     ///< producer's copy of head_
  std::size_t tail_cache_ = 0;                    ///< producer's view of tail
  alignas(64) std::atomic<std::size_t> tail_{0};  ///< consumer-owned
  alignas(64) std::size_t head_cache_ = 0;        ///< consumer's view of head
  bool idle_raised_ = true;                       ///< consumer's copy of idle
  // Read by the producer on every stage-and-maybe-publish; both written
  // rarely (idle transitions, end of stream), so the line stays shared.  A
  // fresh ring starts idle: its consumer has nothing to drain yet.
  alignas(64) std::atomic<bool> closed_{false};
  std::atomic<std::uint32_t> consumer_idle_{1};
  alignas(64) std::atomic<std::uint32_t> consumer_waiting_{0};
  std::atomic<std::uint32_t> producer_waiting_{0};
  // Park/wake rendezvous: bumped on every notify so std::atomic::wait (which
  // re-blocks while the value is unchanged) always observes progress.
  // 32-bit on purpose — the futex-native width on Linux.
  std::atomic<std::uint32_t> consumer_signal_{0};
  std::atomic<std::uint32_t> producer_signal_{0};
};

}  // namespace runtime
