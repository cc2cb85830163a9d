// net::SystemClock — the real-time implementation of the net::Clock seam
// used by recraftd. Now() reads CLOCK_MONOTONIC (microseconds since process
// start, so TimePoint stays small and log-friendly like sim time); timers
// sit in a min-heap that the owner's poll loop (net::PollOnce, shared by
// recraftd and KvClient) drains explicitly with RunDue().
//
// Nothing fires from signal handlers or background threads — exactly the
// asynchrony contract net::Clock documents (CallAfter never runs fn
// synchronously; fn runs from RunDue, i.e. the top of the event loop),
// which is also what sim::SimClock provides. Code written against the seam
// cannot tell the two apart except by reading faster clocks.
//
// This file is under the src/net/udp_ determinism-gate exemption: it is
// the one place in src/ allowed to read a wall clock.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "net/clock.h"

namespace recraft::net {

class SystemClock final : public Clock {
 public:
  SystemClock();

  /// Microseconds of CLOCK_MONOTONIC elapsed since construction.
  TimePoint Now() const override;

  TimerId CallAfter(Duration delay, std::function<void()> fn) override;
  void Cancel(TimerId id) override;

  /// Run every timer whose deadline is at or before Now(). Callbacks may
  /// schedule or cancel further timers. Returns the number fired.
  size_t RunDue();

  /// Earliest pending deadline, or 0 when no timers are armed.
  TimePoint NextDeadline() const;

  size_t pending() const { return fns_.size(); }

 private:
  struct Timer {
    TimePoint deadline = 0;
    TimerId id = kNoTimer;
    // Ties break by id: FIFO among equal deadlines, like the sim queue.
    bool operator>(const Timer& o) const {
      if (deadline != o.deadline) return deadline > o.deadline;
      return id > o.id;
    }
  };

  uint64_t base_ns_ = 0;  // CLOCK_MONOTONIC at construction
  TimerId next_id_ = 1;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> heap_;
  // fn lives here so Cancel can drop it without a heap walk; a heap entry
  // whose id is absent is a cancelled tombstone, skipped on pop.
  std::unordered_map<TimerId, std::function<void()>> fns_;
};

}  // namespace recraft::net
