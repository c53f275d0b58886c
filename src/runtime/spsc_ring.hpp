// Bounded single-producer / single-consumer ring buffer with burst I/O.
//
// The packet channel between a traffic source and a shard (or emulated
// switch) worker thread.  The discipline mirrors a switch ingress queue:
// exactly one producer (the wire) and one consumer (the pipeline), a fixed
// capacity, and a hot path that never takes a lock — head and tail are
// single-writer atomics with acquire/release pairing, so pushes and pops
// are wait-free.  When the queue is full the *caller* decides between
// dropping (drop-with-counter, like a switch under load; see FleetRunner)
// and backpressure (wait until space; see ShardedEngine, which must stay
// lossless to remain bit-identical to the single-threaded engine).
//
// Burst transfers are the fast path: try_push_burst / pop_burst move a run
// of items under ONE acquire/release pair, so the per-item cost of the
// atomic handshake (and the cache-line ping-pong between the head and tail
// lines) is amortized across the burst.  A burst wrapping the end of the
// storage array is split into two copies internally; callers never see the
// seam.
//
// Waiting is adaptive: spin → yield → park.  Parking uses C++20
// atomic wait/notify on a per-side signal counter (bumped by every wake,
// so the waiter always observes progress — notifying an unchanged cursor
// would just re-block), gated by a waiter flag.  The flag handshake is the
// classic Dekker store/load pattern: the parker's flag store + cursor
// reload and the waker's cursor publish + flag load are all seq_cst, so in
// the single total order one side must see the other (no lost wakeup).
// Seq_cst accesses (rather than release/acquire + seq_cst fences) keep the
// protocol fully visible to TSan, and on x86 cost the same as the fence
// they replace; the non-contended path pays one such store+load per burst.
// Park episodes are counted per side (plain counters owned by
// the waiting thread, read via relaxed atomics for telemetry) so stalls
// are observable instead of burning a hot loop (see SpinPolicy).
//
// `close()` is part of the shutdown protocol and must be called by the
// producer thread (or after the producer has provably stopped): the consumer
// drains until `closed() && empty()`, so an item pushed after close would
// race with consumer exit.  close() wakes a parked consumer.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <type_traits>
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

/// The spin→yield→park thresholds shared by the worker loops.  A waiter
/// spins kSpins times (cheap, latency-optimal when work is imminent),
/// yields kYields times (lets a same-core producer run), then parks on the
/// ring until the other side publishes — so an idle worker costs the
/// scheduler nothing instead of spinning 44k+ times per quiet period.
struct SpinPolicy {
  static constexpr unsigned kSpins = 128;
  static constexpr unsigned kYields = 16;
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

  /// Returns false when the ring is full.  Moves from (or copies) `item`
  /// only when the push succeeds: after a false return the caller still
  /// holds it, to retry or to drop.
  bool try_push(T&& item) { return push_one(item); }
  bool try_push(const T& item) { return push_one(item); }

  /// Copies up to `n` items from `items` into the ring under a single
  /// acquire/release pair; returns how many were accepted (0 when full).
  /// Requires copyable T (the same burst is typically fanned out to
  /// several rings).
  std::size_t try_push_burst(const T* items, std::size_t n) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    // Free slots from the producer's cached view; refresh once if short.
    std::size_t free = (tail_cache_ - head - 1) & mask_;
    if (free < n) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      free = (tail_cache_ - head - 1) & mask_;
      if (free == 0) return 0;
    }
    const std::size_t take = n < free ? n : free;
    const std::size_t first = std::min(take, mask_ + 1 - head);
    for (std::size_t i = 0; i < first; ++i) slots_[head + i] = items[i];
    for (std::size_t i = first; i < take; ++i) {
      slots_[i - first] = items[i];  // wrapped segment
    }
    head_.store((head + take) & mask_, std::memory_order_seq_cst);
    wake_consumer();
    return take;
  }

  /// Push the whole burst, backpressure-parking while the ring is full.
  /// Returns the number of park episodes (0 on the uncontended path).
  std::size_t push_burst_blocking(const T* items, std::size_t n) {
    std::size_t parked = 0;
    std::size_t done = 0;
    while (done < n) {
      const std::size_t pushed = try_push_burst(items + done, n - done);
      done += pushed;
      if (done == n) break;
      if (pushed == 0) {
        unsigned tries = 0;
        while (try_push_burst(items + done, 1) == 0) {
          if (tries < SpinPolicy::kSpins) {
            ++tries;
          } else if (tries < SpinPolicy::kSpins + SpinPolicy::kYields) {
            ++tries;
            std::this_thread::yield();
          } else {
            producer_park();
            ++parked;
            tries = 0;
          }
        }
        ++done;
      }
    }
    return parked;
  }

  /// Producer side: push or backpressure-wait until space frees up.
  /// Every retry offers the same `item`; it is moved into the ring once.
  void push_blocking(T item) {
    push_blocking(std::move(item), [] {});
  }

  /// As push_blocking(item), but calls `on_full()` once when the first
  /// attempt finds the ring full, before waiting — and never on the
  /// uncontended path (FleetRunner starts its stall timer there).
  template <typename OnFull>
  void push_blocking(T item, OnFull&& on_full) {
    if (push_one(item)) return;
    on_full();
    unsigned tries = 0;
    for (;;) {
      if (push_one(item)) return;
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

  /// Returns false when the ring is empty.
  bool try_pop(T& out) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_cache_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail == head_cache_) return false;
    }
    out = std::move(slots_[tail]);
    tail_.store((tail + 1) & mask_, std::memory_order_seq_cst);
    wake_producer();
    return true;
  }

  /// Drain up to `max_burst` items into `out` (appended) under a single
  /// acquire/release pair.  Batched delivery amortizes the atomic traffic
  /// per wakeup.
  std::size_t pop_burst(std::vector<T>& out, std::size_t max_burst) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t avail = (head_cache_ - tail) & mask_;
    if (avail < max_burst) {
      head_cache_ = head_.load(std::memory_order_acquire);
      avail = (head_cache_ - tail) & mask_;
      if (avail == 0) return 0;
    }
    const std::size_t take = avail < max_burst ? avail : max_burst;
    const std::size_t first = std::min(take, mask_ + 1 - tail);
    for (std::size_t i = 0; i < first; ++i) {
      out.push_back(std::move(slots_[tail + i]));
    }
    for (std::size_t i = first; i < take; ++i) {
      out.push_back(std::move(slots_[i - first]));  // wrapped segment
    }
    tail_.store((tail + take) & mask_, std::memory_order_seq_cst);
    wake_producer();
    return take;
  }

  /// Back-compat alias for pop_burst.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max_batch) {
    return pop_burst(out, max_batch);
  }

  /// Consumer side: park until the producer publishes items or closes the
  /// ring.  Call only after spinning found the ring empty.  Returns
  /// immediately when items or close() raced in.
  ///
  /// The wait is on a dedicated signal counter, NOT on the head cursor:
  /// std::atomic::wait re-blocks while the waited value is unchanged, and
  /// close() changes no cursor — so a wake must always bump the value it
  /// notifies.  (A spurious bump from a stale waiter-flag read is harmless:
  /// the parker rechecks and re-parks.)
  void consumer_park() {
    const std::uint32_t sig = consumer_signal_.load(std::memory_order_relaxed);
    consumer_waiting_.store(1, std::memory_order_seq_cst);
    // Recheck AFTER the flag store in the seq_cst order: either we see the
    // new head/close, or the producer's wake_consumer() sees the flag and
    // bumps the signal (one of the two must hold — see the class comment).
    if (head_.load(std::memory_order_seq_cst) ==
            tail_.load(std::memory_order_relaxed) &&
        !closed_.load(std::memory_order_seq_cst)) {
      consumer_parks_.fetch_add(1, std::memory_order_relaxed);
      consumer_signal_.wait(sig, std::memory_order_relaxed);
    }
    consumer_waiting_.store(0, std::memory_order_relaxed);
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

  [[nodiscard]] bool empty() const noexcept {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  /// Approximate occupancy for telemetry: the two loads are not a
  /// consistent pair under concurrency, but each is exact, so the result
  /// is always within one in-flight item of a true past occupancy.
  [[nodiscard]] std::size_t size() const noexcept {
    const std::size_t h = head_.load(std::memory_order_acquire);
    const std::size_t t = tail_.load(std::memory_order_acquire);
    return (h - t) & mask_;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_; }

  /// Park episodes per side, for telemetry (each counter is written only by
  /// its own side; reads are racy-but-exact snapshots).
  [[nodiscard]] std::uint64_t consumer_parks() const noexcept {
    return consumer_parks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t producer_parks() const noexcept {
    return producer_parks_.load(std::memory_order_relaxed);
  }

 private:
  /// The single-item push: moves from a non-const `item` (copies a const
  /// one) only when there is room; a full ring leaves `item` untouched.
  template <typename U>
  bool push_one(U& item) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t next = (head + 1) & mask_;
    if (next == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (next == tail_cache_) return false;
    }
    if constexpr (std::is_const_v<U>) {
      slots_[head] = item;
    } else {
      slots_[head] = std::move(item);
    }
    // seq_cst publish: Dekker-pairs with consumer_park (see wake_consumer).
    head_.store(next, std::memory_order_seq_cst);
    wake_consumer();
    return true;
  }

  /// Producer side: park until the consumer frees a slot.  The close() flag
  /// is producer-owned, so only tail movement can wake us.  Same signal-
  /// counter protocol as consumer_park().
  void producer_park() {
    const std::uint32_t sig = producer_signal_.load(std::memory_order_relaxed);
    producer_waiting_.store(1, std::memory_order_seq_cst);
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (((head + 1) & mask_) == tail_.load(std::memory_order_seq_cst)) {
      producer_parks_.fetch_add(1, std::memory_order_relaxed);
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
  alignas(64) std::atomic<std::size_t> head_{0};  ///< producer-owned
  alignas(64) std::size_t tail_cache_ = 0;        ///< producer's view of tail
  alignas(64) std::atomic<std::size_t> tail_{0};  ///< consumer-owned
  alignas(64) std::size_t head_cache_ = 0;        ///< consumer's view of head
  alignas(64) std::atomic<bool> closed_{false};
  std::atomic<std::uint32_t> consumer_waiting_{0};
  std::atomic<std::uint32_t> producer_waiting_{0};
  // Park/wake rendezvous: bumped on every notify so std::atomic::wait (which
  // re-blocks while the value is unchanged) always observes progress.
  // 32-bit on purpose — the futex-native width on Linux.
  std::atomic<std::uint32_t> consumer_signal_{0};
  std::atomic<std::uint32_t> producer_signal_{0};
  std::atomic<std::uint64_t> consumer_parks_{0};
  std::atomic<std::uint64_t> producer_parks_{0};
};

}  // namespace runtime
