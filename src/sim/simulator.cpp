#include "src/sim/simulator.hpp"

#include <cassert>
#include <utility>

#include "src/obs/profile.hpp"

namespace burst {

EventId Simulator::schedule(Time delay, SmallFn&& fn) {
  assert(delay >= 0.0 && "cannot schedule into the past");
  return scheduler_.schedule_at(now_ + delay, std::move(fn), now_);
}

EventId Simulator::schedule_at(Time at, SmallFn&& fn) {
  assert(at >= now_ && "cannot schedule into the past");
  return scheduler_.schedule_at(at, std::move(fn), now_);
}

EventId Simulator::schedule_at_as_of(Time at, Time tie_time, SmallFn&& fn) {
  assert(at >= now_ && "cannot schedule into the past");
  assert(tie_time <= at && "tie-break instant must not trail the event");
  return scheduler_.schedule_at(at, std::move(fn), tie_time);
}

EventId Simulator::schedule_at_reserved(Time at, Time tie_time,
                                        std::uint64_t order, SmallFn&& fn) {
  assert(at >= now_ && "cannot schedule into the past");
  assert(tie_time <= at && "tie-break instant must not trail the event");
  return scheduler_.schedule_at_reserved(at, tie_time, order, std::move(fn));
}

void Simulator::run(Time until) {
  // Everything inside the loop defaults to the dispatch phase; nested
  // scopes (transport handlers, queue disciplines) claim their own self
  // time. No-op unless a Profiler is installed on this thread.
  ProfileScope prof(ProfilePhase::kDispatch);
  stopped_ = false;
  while (!stopped_ && !scheduler_.empty()) {
    const Time next = scheduler_.next_time();
    if (next > until) {
      now_ = until;
      return;
    }
    // Advance the clock before invoking, so the callback (and anything it
    // schedules) observes the event's own timestamp as "now".
    auto ready = scheduler_.take_next();
    now_ = ready.at;
    current_tie_ = scheduler_.popped_tie();
    ready.fn();
    ++events_run_;
  }
  if (until != kTimeNever && now_ < until) now_ = until;
}

void Simulator::run_window(Time bound, Time cap) {
  ProfileScope prof(ProfilePhase::kDispatch);
  stopped_ = false;
  while (!stopped_ && !scheduler_.empty()) {
    const Time next = scheduler_.next_time();
    // Strictly below the safe bound (events AT the bound may still be
    // preceded by a cross-LP arrival carrying the same timestamp), and no
    // later than the horizon, which run() executes inclusively.
    if (next >= bound || next > cap) return;
    auto ready = scheduler_.take_next();
    now_ = ready.at;
    current_tie_ = scheduler_.popped_tie();
    ready.fn();
    ++events_run_;
  }
}

}  // namespace burst
