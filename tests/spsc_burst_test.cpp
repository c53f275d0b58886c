// SpscRing burst I/O: wraparound correctness and the park/wake protocol.
//
// Every test drives the ring through the calls its runtime uses: stage()
// and stage_blocking() on the producer side, publish() to make a run
// visible, consume_burst() on the consumer side.  The single-threaded
// tests nail down the burst semantics (refusal when full, FIFO order
// across the wrap seam, single-item publishes and drains mixed with
// bursts) and the staging rules (stage() is invisible until publish(),
// refuses exactly at capacity, and wraps); the threaded tests are the TSan
// targets: a tiny ring hammered with randomly sized bursts from both sides
// forces constant wraparound and both park paths (producer parks on full,
// consumer parks on empty), so the acquire/release pairing and the
// Dekker-style park/notify fences are exercised under the race detector.  Two more threaded tests pin the
// consumer-wait helper's idle flag and the buffer-locality contract: what
// a consumer leaves in its slots dies on the producer's thread.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/spsc_ring.hpp"

namespace {

using runtime::IdleStats;
using runtime::SpscRing;

/// Moves up to `max` published items out of the ring, oldest first.
template <typename T>
std::vector<T> take(SpscRing<T>& ring, std::size_t max) {
  std::vector<T> out;
  ring.consume_burst(max, [&out](T& v) { out.push_back(std::move(v)); });
  return out;
}

TEST(SpscBurst, PushBurstRespectsCapacity) {
  SpscRing<int> ring(8);  // rounds to 16 slots, 15 usable
  int staged = 0;
  while (staged < 100 && ring.stage(int{staged})) ++staged;
  EXPECT_EQ(static_cast<std::size_t>(staged), ring.capacity());
  ring.publish();
  EXPECT_EQ(ring.size(), ring.capacity());
  EXPECT_FALSE(ring.stage(100)) << "ring is full";

  const std::vector<int> out = take(ring, 1000);
  ASSERT_EQ(out.size(), ring.capacity());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
  EXPECT_TRUE(ring.empty());
}

TEST(SpscBurst, FifoAcrossWrapSeam) {
  // Publish 5 / drain 3 against a 15-slot ring walks the cursors through
  // every wrap alignment; the drained stream must stay 0,1,2,...
  SpscRing<std::uint64_t> ring(8);
  std::uint64_t next_in = 0;
  std::uint64_t next_out = 0;
  const auto check = [&next_out](std::uint64_t& v) {
    ASSERT_EQ(v, next_out);
    ++next_out;
  };
  for (int round = 0; round < 1000; ++round) {
    const std::uint64_t burst_end = next_in + 5;
    while (next_in < burst_end) {
      while (next_in < burst_end && ring.stage(std::uint64_t{next_in})) {
        ++next_in;
      }
      ring.publish();
      if (next_in < burst_end) {
        ASSERT_GT(ring.consume_burst(3, check), 0u);
      }
    }
    ring.consume_burst(3, check);
  }
  while (ring.consume_burst(4, check) != 0) {
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(SpscBurst, BurstInteroperatesWithSingleItemOps) {
  SpscRing<int> ring(16);
  ASSERT_TRUE(ring.stage(0));
  ring.publish();
  for (int i = 1; i <= 3; ++i) ASSERT_TRUE(ring.stage(int{i}));
  ring.publish();
  ASSERT_TRUE(ring.stage(4));
  ring.publish();

  EXPECT_EQ(take(ring, 1), std::vector<int>{0});
  EXPECT_EQ(take(ring, 2), (std::vector<int>{1, 2}));
  EXPECT_EQ(take(ring, 1), std::vector<int>{3});
  EXPECT_EQ(take(ring, 1), std::vector<int>{4});
  EXPECT_TRUE(ring.empty());
}

// An element that counts its copies (moves are free), standing in for a
// Packet whose copy costs an allocation and a memcpy.
struct CopyCounted {
  static inline int copies = 0;
  std::vector<int> payload;

  CopyCounted() = default;
  explicit CopyCounted(int v) : payload{v} {}
  CopyCounted(const CopyCounted& o) : payload(o.payload) { ++copies; }
  CopyCounted& operator=(const CopyCounted& o) {
    payload = o.payload;
    ++copies;
    return *this;
  }
  CopyCounted(CopyCounted&&) noexcept = default;
  CopyCounted& operator=(CopyCounted&&) noexcept = default;
  ~CopyCounted() = default;
};

TEST(SpscBurst, SingleItemPushOfRvaluesNeverCopies) {
  CopyCounted::copies = 0;
  SpscRing<CopyCounted> ring(4);  // rounds to 8 slots, 7 usable
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(ring.stage(CopyCounted(i)));
  for (int i = 3; i < 7; ++i) ring.stage_blocking(CopyCounted(i), [] {});
  ring.publish();
  EXPECT_EQ(ring.size(), ring.capacity());

  // A refused stage leaves its argument intact, so the caller can retry.
  CopyCounted kept(99);
  EXPECT_FALSE(ring.stage(std::move(kept)));
  EXPECT_EQ(kept.payload, std::vector<int>{99});

  std::vector<CopyCounted> out = take(ring, 1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload, std::vector<int>{0});
  ring.stage_blocking(std::move(kept), [] {});  // lands in the freed slot
  ring.publish();
  out = take(ring, 8);
  ASSERT_EQ(out.size(), 7u);
  for (int i = 1; i < 7; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i - 1)].payload,
              std::vector<int>{i});
  }
  EXPECT_EQ(out.back().payload, std::vector<int>{99});
  EXPECT_EQ(CopyCounted::copies, 0);
}

TEST(SpscBurst, PushBlockingCallsOnFullOnlyWhenItMustWait) {
  SpscRing<int> ring(3);  // rounds to 4 slots, 3 usable
  int full_calls = 0;
  const auto on_full = [&full_calls] { ++full_calls; };
  for (int i = 0; i < 3; ++i) ring.stage_blocking(int{i}, on_full);
  EXPECT_EQ(full_calls, 0) << "the uncontended path must not report a stall";

  // The consumer frees a slot only after the producer reported the stall,
  // so the first attempt is guaranteed to find the ring full.  The stall
  // publishes the staged items: the consumer can only free what it sees.
  std::atomic<bool> stalled{false};
  std::thread consumer([&] {
    while (!stalled.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    while (ring.consume_burst(1, [](int&) {}) == 0) std::this_thread::yield();
  });
  ring.stage_blocking(3, [&] {
    ++full_calls;
    stalled.store(true, std::memory_order_release);
  });
  consumer.join();
  EXPECT_EQ(full_calls, 1);
  EXPECT_EQ(ring.staged(), 1u) << "the waiting item stays staged";

  ring.publish();
  EXPECT_EQ(take(ring, 8), (std::vector<int>{1, 2, 3}));
}

TEST(SpscBurst, CloseWakesParkedConsumer) {
  SpscRing<int> ring(8);
  std::thread consumer([&] {
    while (!(ring.closed() && ring.empty())) {
      if (ring.consume_burst(8, [](int&) {}) == 0) ring.consumer_park();
    }
  });
  // Give the consumer a chance to actually park, then close: the notify in
  // close() must wake it or this test hangs.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ring.close();
  consumer.join();
  SUCCEED();
}

// TSan stress: a 15-slot ring forces a wrap every other burst and constant
// full/empty transitions, so both sides park and both wake paths fire.
TEST(SpscBurstStress, RandomBurstsThreaded) {
  constexpr std::uint64_t kTotal = 200000;
  SpscRing<std::uint64_t> ring(8);

  std::thread producer([&] {
    std::mt19937_64 rng(1);
    std::uint64_t next = 0;
    while (next < kTotal) {
      const std::uint64_t end =
          std::min<std::uint64_t>(next + 1 + rng() % 24, kTotal);
      while (next < end) ring.stage_blocking(std::uint64_t{next++}, [] {});
      ring.publish();
    }
    ring.close();
  });

  std::mt19937_64 rng(2);
  std::uint64_t expected = 0;
  const auto check = [&expected](std::uint64_t& v) {
    ASSERT_EQ(v, expected);
    ++expected;
  };
  while (true) {
    if (ring.consume_burst(1 + rng() % 24, check) == 0) {
      if (ring.closed() && ring.empty()) break;
      ring.consumer_park();
    }
  }
  producer.join();
  EXPECT_EQ(expected, kTotal);
}

// Same stress with bursts and single-item publishes and drains mixed on
// both sides.
TEST(SpscBurstStress, MixedOpsThreaded) {
  constexpr std::uint64_t kTotal = 100000;
  SpscRing<std::uint64_t> ring(4);

  std::thread producer([&] {
    std::mt19937_64 rng(3);
    std::uint64_t next = 0;
    while (next < kTotal) {
      const std::uint64_t run = rng() % 2 == 0 ? 1 : 1 + rng() % 6;
      const std::uint64_t end = std::min<std::uint64_t>(next + run, kTotal);
      while (next < end) ring.stage_blocking(std::uint64_t{next++}, [] {});
      ring.publish();
    }
    ring.close();
  });

  std::mt19937_64 rng(4);
  std::uint64_t expected = 0;
  const auto check = [&expected](std::uint64_t& v) {
    ASSERT_EQ(v, expected);
    ++expected;
  };
  while (true) {
    const std::size_t max = rng() % 2 == 0 ? 1 : 1 + rng() % 6;
    if (ring.consume_burst(max, check) == 0) {
      if (ring.closed() && ring.empty()) break;
      ring.consumer_park();
    }
  }
  producer.join();
  EXPECT_EQ(expected, kTotal);
}

// ------------------------------------------------------------ staging

TEST(SpscStage, StagedItemsAreInvisibleUntilPublish) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(ring.stage(int{i}));
  EXPECT_EQ(ring.staged(), 3u);
  EXPECT_TRUE(ring.empty()) << "staged items are not published";
  EXPECT_EQ(ring.size(), 0u);
  int calls = 0;
  EXPECT_EQ(ring.consume_burst(8, [&calls](int&) { ++calls; }), 0u);
  EXPECT_EQ(calls, 0);

  ring.publish();
  EXPECT_EQ(ring.staged(), 0u);
  EXPECT_FALSE(ring.empty());
  EXPECT_EQ(ring.size(), 3u);
  std::vector<int> got;
  EXPECT_EQ(ring.consume_burst(8, [&got](int& v) { got.push_back(v); }), 3u);
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(ring.empty());
  ring.publish();  // nothing staged: a no-op
  EXPECT_TRUE(ring.empty());
}

TEST(SpscStage, StageRefusesExactlyWhenPublishedPlusStagedFillTheRing) {
  SpscRing<int> ring(8);  // 15 usable
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(ring.stage(int{i}));
  ring.publish();
  std::size_t staged = 0;
  while (ring.stage(static_cast<int>(5 + staged))) ++staged;
  EXPECT_EQ(5 + staged, ring.capacity());
  EXPECT_EQ(ring.staged(), staged);
  EXPECT_EQ(ring.size(), 5u) << "only the published five are visible";

  // Freeing one published slot admits exactly one more stage.
  EXPECT_EQ(take(ring, 1), std::vector<int>{0});
  EXPECT_TRUE(ring.stage(99));
  EXPECT_FALSE(ring.stage(100));
  ring.publish();
  EXPECT_EQ(ring.size(), ring.capacity());
  const std::vector<int> out = take(ring, 100);
  ASSERT_EQ(out.size(), ring.capacity());
  for (std::size_t i = 0; i + 1 < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i + 1));
  }
  EXPECT_EQ(out.back(), 99);
}

TEST(SpscStage, StagingCrossesTheWrapSeam) {
  // Stage runs of 1..15 and drain them in place with bursts of 1..6, so
  // the stage, the publish and the in-place drain all cross the seam at
  // every alignment of a 16-slot ring.
  SpscRing<std::uint64_t> ring(8);
  std::mt19937_64 rng(5);
  std::uint64_t next_in = 0;
  std::uint64_t next_out = 0;
  const auto check = [&next_out](std::uint64_t& v) {
    ASSERT_EQ(v, next_out);
    ++next_out;
  };
  for (int round = 0; round < 2000; ++round) {
    const std::size_t run = 1 + rng() % ring.capacity();
    std::size_t staged = 0;
    while (staged < run && ring.stage(std::uint64_t{next_in})) {
      ++next_in;
      ++staged;
    }
    EXPECT_EQ(ring.staged(), staged);
    ring.publish();
    while (ring.consume_burst(1 + rng() % 6, check) != 0) {
      if (rng() % 3 == 0) break;  // leave some behind across rounds
    }
  }
  while (ring.consume_burst(16, check) != 0) {
  }
  EXPECT_EQ(next_out, next_in);
  EXPECT_TRUE(ring.empty());
}

TEST(SpscStage, IdleFlagTracksTheConsumer) {
  SpscRing<int> ring(8);
  IdleStats stats;
  EXPECT_TRUE(ring.consumer_idle()) << "a fresh ring's consumer is idle";
  ASSERT_TRUE(ring.stage(5));
  ring.publish();
  ASSERT_TRUE(ring.wait_readable(stats));
  EXPECT_FALSE(ring.consumer_idle()) << "published items lower the flag";
  EXPECT_EQ(stats.polls, 0u) << "no wait when items are already there";
  EXPECT_EQ(ring.consume_burst(8, [](int&) {}), 1u);

  std::atomic<int> got{0};
  std::thread consumer([&] {
    while (ring.wait_readable(stats)) {
      ring.consume_burst(8, [&got](int& v) { got.fetch_add(v); });
    }
  });
  // On the empty ring the consumer spins out and raises the flag again.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!ring.consumer_idle()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the consumer never raised its idle flag";
    std::this_thread::yield();
  }
  ASSERT_TRUE(ring.stage(1));
  ring.publish();
  ring.close();
  consumer.join();
  EXPECT_EQ(got.load(), 1);
  EXPECT_GE(stats.polls, runtime::SpinPolicy::kSpins);
}

// A payload that logs the thread it dies on.  Moves transfer the duty to
// log, so each payload the producer made logs exactly once.
struct Deaths {
  std::mutex mu;
  std::vector<std::thread::id> threads;
};

class Tracked {
 public:
  Tracked() = default;
  explicit Tracked(Deaths* log) : log_(log) {}
  Tracked(Tracked&& o) noexcept : log_(std::exchange(o.log_, nullptr)) {}
  Tracked& operator=(Tracked&& o) noexcept {
    die();
    log_ = std::exchange(o.log_, nullptr);
    return *this;
  }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() { die(); }
  [[nodiscard]] bool live() const noexcept { return log_ != nullptr; }

 private:
  void die() noexcept {
    if (log_ == nullptr) return;
    const std::lock_guard<std::mutex> lock(log_->mu);
    log_->threads.push_back(std::this_thread::get_id());
    log_ = nullptr;
  }
  Deaths* log_ = nullptr;
};

TEST(SpscStage, InPlaceConsumerDestroysNothingTheProducerMade) {
  constexpr std::size_t kItems = 5000;
  Deaths deaths;
  std::thread::id producer_id;
  std::thread::id consumer_id;
  std::size_t seen = 0;
  {
    SpscRing<Tracked> ring(16);
    std::thread producer([&] {
      producer_id = std::this_thread::get_id();
      std::mt19937_64 rng(9);
      for (std::size_t i = 0; i < kItems; ++i) {
        ring.stage_blocking(Tracked(&deaths), [] {});
        if (rng() % 4 == 0) ring.publish();
      }
      ring.publish();
      ring.close();
    });
    std::thread consumer([&] {
      consumer_id = std::this_thread::get_id();
      IdleStats stats;
      while (ring.wait_readable(stats)) {
        ring.consume_burst(8, [&seen](Tracked& t) {
          EXPECT_TRUE(t.live());
          ++seen;
        });
      }
    });
    producer.join();
    consumer.join();
    // The ring's destructor takes what is still in the slots, here.
  }
  EXPECT_EQ(seen, kItems);
  ASSERT_EQ(deaths.threads.size(), kItems) << "every payload died once";
  const std::thread::id here = std::this_thread::get_id();
  std::size_t on_producer = 0;
  for (const std::thread::id t : deaths.threads) {
    EXPECT_NE(t, consumer_id) << "the consumer destroyed a payload";
    EXPECT_TRUE(t == producer_id || t == here);
    if (t == producer_id) ++on_producer;
  }
  EXPECT_GE(on_producer, kItems - 32) << "only the last slots outlive it";
}

}  // namespace
