// Discrete-event simulator: the timing substrate replacing Mininet.
//
// Everything in the case-study emulation — packet transmission, link
// latency, controller processing, table-update delays — is an event on one
// deterministic nanosecond clock, so experiments are exactly reproducible
// from their seeds (unlike the paper's wall-clock veth/OVS setup).
//
// Events fire in ascending (time, scheduling order), whichever call
// scheduled them.  A queued event is a trivially copyable record: its time,
// its scheduling sequence number and a call fn(ctx, arg).  The hot path
// schedules such calls directly and allocates nothing.  schedule_at(t,
// Callback) parks its std::function in a slot pool the simulator reuses and
// queues a thunk that moves it out, frees the slot and runs it, so a
// callback that owns state (a captured Packet, say) is never copied.
//
// A lane is a FIFO of events whose times never decrease, such as one link
// direction's arrivals.  The heap holds each non-empty lane's head and the
// events scheduled outside lanes, so a lane with many events in flight
// costs the heap one entry.  A lane event keeps the sequence number it got
// when it was scheduled, which keeps the order above exact.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "stat4/types.hpp"

namespace netsim {

using stat4::TimeNs;

/// A FIFO in reused storage: a power-of-two ring that doubles when full
/// and never shrinks.
template <typename T>
class Ring {
 public:
  [[nodiscard]] bool empty() const noexcept { return head_ == tail_; }
  [[nodiscard]] T& front() noexcept { return at(head_); }
  [[nodiscard]] T& back() noexcept { return at(tail_ - 1); }
  void push_back(T value) {
    if (tail_ - head_ == buf_.size()) {
      std::vector<T> bigger(buf_.empty() ? 8 : 2 * buf_.size());
      for (std::size_t i = head_; i != tail_; ++i) {
        bigger[i - head_] = std::move(at(i));
      }
      buf_.swap(bigger);
      tail_ -= head_;
      head_ = 0;
    }
    at(tail_++) = std::move(value);
  }
  T pop_front() { return std::move(at(head_++)); }

 private:
  T& at(std::size_t i) noexcept { return buf_[i & (buf_.size() - 1)]; }
  std::vector<T> buf_;
  std::size_t head_ = 0;  ///< free-running positions, wrapped by at()
  std::size_t tail_ = 0;
};

class Simulator {
 public:
  using Callback = std::function<void()>;
  /// An allocation-free event body: the simulator runs fn(ctx, arg).
  using EventFn = void (*)(void* ctx, std::uint64_t arg);
  using LaneId = std::uint32_t;

  /// Schedule `cb` at absolute time `t` (must be >= now()).
  void schedule_at(TimeNs t, Callback cb);

  /// Schedule `cb` after `delay` nanoseconds.
  void schedule_after(TimeNs delay, Callback cb);

  /// Schedule fn(ctx, arg) at absolute time `t` (must be >= now()).
  void schedule_at(TimeNs t, EventFn fn, void* ctx, std::uint64_t arg);

  /// Opens a new, empty lane; it lives as long as the simulator.
  [[nodiscard]] LaneId add_lane();

  /// Schedule fn(ctx, arg) at `t` on `lane`.  `t` must be >= now() and >=
  /// the time of the lane's last queued event; otherwise this throws
  /// std::invalid_argument and changes nothing (std::out_of_range for a
  /// lane add_lane() did not return).
  void schedule_lane(LaneId lane, TimeNs t, EventFn fn, void* ctx,
                     std::uint64_t arg);

  [[nodiscard]] TimeNs now() const noexcept { return now_; }

  /// Run until the event queue drains.  Returns events processed.
  std::uint64_t run();

  /// Run events with time <= `t`; afterwards now() == t (even if idle).
  std::uint64_t run_until(TimeNs t);

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return processed_;
  }

 private:
  struct Event {
    TimeNs time = 0;
    std::uint64_t seq = 0;  ///< FIFO tie-break for equal timestamps
    EventFn fn = nullptr;
    void* ctx = nullptr;
    std::uint64_t arg = 0;
  };
  static_assert(std::is_trivially_copyable_v<Event>);
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void push(const Event& ev);
  /// The thunk of a parked std::function: `arg` is its slot.
  static void run_callback(void* sim, std::uint64_t slot);
  /// A lane's entry in the heap: runs the lane's front event and queues
  /// the lane's next one, if any, as the new head.
  static void run_lane_head(void* sim, std::uint64_t lane);
  /// Pops the earliest event, advances the clock to it and runs it.
  void run_next();

  std::vector<Event> heap_;  ///< std::push_heap/pop_heap order under Later
  std::vector<Ring<Event>> lanes_;
  std::vector<Callback> callbacks_;  ///< parked callbacks, by slot
  std::vector<std::uint32_t> free_callbacks_;  ///< free slots
  TimeNs now_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t pending_ = 0;  ///< events queued, in the heap or in lanes
  std::uint64_t processed_ = 0;
};

}  // namespace netsim
