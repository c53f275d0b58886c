#include "netsim/simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace netsim {

void Simulator::push(const Event& ev) {
  heap_.push_back(ev);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Simulator::schedule_at(TimeNs t, EventFn fn, void* ctx,
                            std::uint64_t arg) {
  if (t < now_) {
    throw std::invalid_argument("netsim: cannot schedule in the past");
  }
  push(Event{t, seq_++, fn, ctx, arg});
  ++pending_;
}

void Simulator::schedule_at(TimeNs t, Callback cb) {
  if (free_callbacks_.empty()) {
    free_callbacks_.push_back(static_cast<std::uint32_t>(callbacks_.size()));
    callbacks_.emplace_back();
  }
  // Queue first: a time in the past throws with nothing parked.
  schedule_at(t, &run_callback, this, free_callbacks_.back());
  callbacks_[free_callbacks_.back()] = std::move(cb);
  free_callbacks_.pop_back();
}

void Simulator::schedule_after(TimeNs delay, Callback cb) {
  if (delay < 0) {
    throw std::invalid_argument("netsim: negative delay");
  }
  schedule_at(now_ + delay, std::move(cb));
}

void Simulator::run_callback(void* sim, std::uint64_t slot) {
  // Move out and free the slot before running: the callback may schedule
  // new ones, which can reallocate the pool under a reference into it.
  auto& self = *static_cast<Simulator*>(sim);
  const Callback cb = std::move(self.callbacks_[slot]);
  self.free_callbacks_.push_back(static_cast<std::uint32_t>(slot));
  cb();
}

Simulator::LaneId Simulator::add_lane() {
  lanes_.emplace_back();
  return static_cast<LaneId>(lanes_.size() - 1);
}

void Simulator::schedule_lane(LaneId lane, TimeNs t, EventFn fn, void* ctx,
                              std::uint64_t arg) {
  Ring<Event>& events = lanes_.at(lane);
  if (t < now_ || (!events.empty() && t < events.back().time)) {
    throw std::invalid_argument("netsim: lane event before the lane's last");
  }
  const Event ev{t, seq_++, fn, ctx, arg};
  if (events.empty()) push(Event{t, ev.seq, &run_lane_head, this, lane});
  events.push_back(ev);
  ++pending_;
}

void Simulator::run_lane_head(void* sim, std::uint64_t lane) {
  auto& self = *static_cast<Simulator*>(sim);
  Ring<Event>& events = self.lanes_[lane];
  const Event ev = events.pop_front();
  if (!events.empty()) {
    const Event& head = events.front();
    self.push(Event{head.time, head.seq, &run_lane_head, sim, lane});
  }
  ev.fn(ev.ctx, ev.arg);
}

void Simulator::run_next() {
  // Copy out before running: the event may schedule new ones, which can
  // reallocate the heap under a reference into it.
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Event ev = heap_.back();
  heap_.pop_back();
  now_ = ev.time;
  --pending_;
  ev.fn(ev.ctx, ev.arg);
  ++processed_;
}

std::uint64_t Simulator::run() {
  std::uint64_t n = 0;
  while (!heap_.empty()) {
    run_next();
    ++n;
  }
  return n;
}

std::uint64_t Simulator::run_until(TimeNs t) {
  std::uint64_t n = 0;
  // heap_.front() is the earliest event (Later puts it on top).
  while (!heap_.empty() && heap_.front().time <= t) {
    run_next();
    ++n;
  }
  if (now_ < t) now_ = t;
  return n;
}

}  // namespace netsim
