// A restartable one-shot timer, the building block for TCP retransmit and
// delayed-ACK timers.
//
// The owner must outlive the timer's Simulator events; Timer guarantees
// that a cancelled or rescheduled timer never fires its old callback.
//
// Soft deadlines (DESIGN.md §6): schedule() just records the new
// deadline. At most one scheduler event is armed at a time; when it fires
// it compares the recorded deadline against its own timestamp and either
// fires the callback, re-arms itself at the (later) deadline, or quietly
// disarms if the timer was cancelled meanwhile. A deadline that only ever
// moves forward — the TCP RTO, pushed out by every ACK — costs zero
// scheduler traffic per move instead of a cancel+insert pair. The
// callback still runs exactly at the latest scheduled deadline and never
// after a cancel, as if every schedule()/cancel() were a scheduler
// insert/cancel (tests/timer_test.cpp checks this against such an exact
// timer). The armed event is an ordinary scheduler event; like other
// events due after the current tick, it waits in the scheduler's timing
// wheel, so a large armed-timer population costs O(1) per arm.
#pragma once

#include <utility>

#include "src/sim/simulator.hpp"
#include "src/sim/small_fn.hpp"

namespace burst {

class Timer {
 public:
  /// @p on_fire is invoked each time the timer expires; it is constructed
  /// in place, never moved through a temporary SmallFn.
  template <typename F>
  Timer(Simulator& sim, F&& on_fire)
      : sim_(sim), on_fire_(std::forward<F>(on_fire)) {}

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  /// Hard-cancels: no scheduler event may outlive the Timer it points
  /// back into.
  ~Timer() { disarm(); }

  /// (Re)schedules the timer @p delay seconds from now, replacing any
  /// pending expiry. A deadline that moves forward (or stays put) is O(1)
  /// with no scheduler traffic.
  void schedule(Time delay);

  /// Stops the timer; a stopped timer does not fire. The armed scheduler
  /// event (if any) is left to self-disarm as a no-op.
  void cancel() { deadline_ = kTimeNever; }

  /// True if an expiry is pending.
  bool pending() const { return deadline_ != kTimeNever; }

  /// Absolute expiry time, or kTimeNever if not pending.
  Time expiry() const { return deadline_; }

 private:
  /// Arms the underlying scheduler event at absolute time @p at.
  void arm(Time at);
  /// Cancels the underlying scheduler event (deadline_ untouched).
  void disarm();
  /// Trampoline run by the scheduler event.
  void on_event();

  Simulator& sim_;
  SmallFn on_fire_;
  EventId id_ = kInvalidEventId;
  Time armed_at_ = kTimeNever;  // when the armed scheduler event runs
  Time deadline_ = kTimeNever;  // when on_fire_ is due (kTimeNever: none)
};

}  // namespace burst
