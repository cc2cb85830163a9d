#include "net/udp_clock.h"

#include <ctime>

namespace recraft::net {

namespace {

uint64_t MonotonicNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace

SystemClock::SystemClock() : base_ns_(MonotonicNs()) {}

TimePoint SystemClock::Now() const { return (MonotonicNs() - base_ns_) / 1000; }

TimerId SystemClock::CallAfter(Duration delay, std::function<void()> fn) {
  TimerId id = next_id_++;
  TimePoint deadline = Now() + delay;
  if (deadline == 0) deadline = 1;  // 0 is NextDeadline's "none" sentinel
  heap_.push(Timer{deadline, id});
  fns_.emplace(id, std::move(fn));
  return id;
}

void SystemClock::Cancel(TimerId id) {
  if (id == kNoTimer) return;
  fns_.erase(id);  // the heap entry becomes a tombstone, skipped on pop
}

size_t SystemClock::RunDue() {
  size_t fired = 0;
  TimePoint now = Now();  // fixed snapshot: callbacks arming 0-delay timers
                          // run on the NEXT RunDue, never recurse here
  while (!heap_.empty() && heap_.top().deadline <= now) {
    Timer t = heap_.top();
    heap_.pop();
    auto it = fns_.find(t.id);
    if (it == fns_.end()) continue;  // cancelled
    std::function<void()> fn = std::move(it->second);
    fns_.erase(it);
    fn();
    ++fired;
  }
  return fired;
}

TimePoint SystemClock::NextDeadline() const {
  // Skim cancelled tombstones off the top so pollers do not spin on them.
  auto* self = const_cast<SystemClock*>(this);
  while (!self->heap_.empty() &&
         self->fns_.find(self->heap_.top().id) == self->fns_.end()) {
    self->heap_.pop();
  }
  return heap_.empty() ? 0 : heap_.top().deadline;
}

}  // namespace recraft::net
