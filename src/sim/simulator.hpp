// The simulation context: clock + scheduler + RNG.
//
// Components hold a reference to their Simulator; there is no global
// state, so several simulations can run in one process (the sweep runner
// relies on this).
#pragma once

#include <cstdint>

#include "src/sim/random.hpp"
#include "src/sim/scheduler.hpp"
#include "src/sim/small_fn.hpp"
#include "src/sim/time.hpp"

namespace burst {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time in seconds.
  Time now() const { return now_; }

  /// Schedules @p fn to run @p delay seconds from now (delay >= 0).
  EventId schedule(Time delay, SmallFn&& fn);

  /// Schedules @p fn at absolute time @p at (>= now()).
  EventId schedule_at(Time at, SmallFn&& fn);

  /// Schedules @p fn at absolute time @p at, ordered among same-time
  /// events *as if* it had been inserted at instant @p tie_time
  /// (<= @p at). This is how a fused event (one insert standing in for a
  /// chain of two, see SimplexLink) lands in exactly the heap position
  /// the unfused chain's final event would have had, keeping runs
  /// bit-identical across the fusion. Plain schedule_at() is the
  /// tie_time == now() special case.
  EventId schedule_at_as_of(Time at, Time tie_time, SmallFn&& fn);

  /// Reserves the same-instant FIFO rank the next scheduled event would
  /// receive, without inserting one. Redeem it with
  /// schedule_at_reserved(): the event sorts among same-time peers as the
  /// event that *would* have been scheduled at reservation point — this
  /// is how a lazily-armed fused event (SimplexLink's queue drain) keeps
  /// the heap position of the eager event it replaces.
  std::uint64_t reserve_order() { return scheduler_.reserve_order(); }

  /// Schedules @p fn at @p at ranked by (@p tie_time, @p order) among
  /// same-time events, where @p order came from reserve_order().
  EventId schedule_at_reserved(Time at, Time tie_time, std::uint64_t order,
                               SmallFn&& fn);

  /// Cancels a pending event; no-op for fired/invalid ids.
  void cancel(EventId id) { scheduler_.cancel(id); }

  /// True iff @p id is scheduled and not yet fired or cancelled.
  bool pending(EventId id) const { return scheduler_.pending(id); }

  /// Runs events until the event queue drains, @p until is reached, or
  /// stop() is called. The clock is left at the time of the last event run
  /// (or @p until, if that is earlier than the next event).
  void run(Time until = kTimeNever);

  /// One LP window of the conservative parallel protocol: runs events
  /// strictly BEFORE @p bound and no later than @p cap (the horizon, which
  /// run() treats inclusively), then returns with the clock at the last
  /// executed event — NOT advanced to the window edge, because the next
  /// window's safe bound is still unknown and cross-LP merges must insert
  /// events after now(). Only the LP runtime calls this.
  void run_window(Time bound, Time cap);

  /// Finalizes an LP clock at the horizon, mirroring what run(until) does
  /// when the queue outlives the horizon. Called once, after the last
  /// window.
  void finish_at(Time t) {
    if (now_ < t) now_ = t;
  }

  /// Earliest pending event's time (kTimeNever if none): the lower bound
  /// this LP publishes to the window barrier. Settles the timing wheel,
  /// so the bound is exact across the heap and the wheel.
  Time next_event_time() { return scheduler_.next_time(); }

  /// Requests that run() return after the current event completes.
  void stop() { stopped_ = true; }

  /// Number of events executed so far (for diagnostics / benchmarks).
  std::uint64_t events_run() const { return events_run_; }

  /// The tie-break instant of the event currently executing (0 outside a
  /// callback — e.g. during topology build). For a default-scheduled
  /// event this is the instant it was scheduled, which is exactly the
  /// discriminator same-instant events execute in: among equal `at`, the
  /// scheduler orders by (tie_time, insertion seq). Cross-LP handoffs
  /// carry it as a causality stamp so the consumer's merge can reproduce
  /// the sequential engine's same-instant order without a global
  /// insertion counter (DESIGN.md §13.3).
  Time current_tie() const { return current_tie_; }

  /// Stable address of current_tie(), for observers (TraceSink) that must
  /// stamp each record with the executing event's full scheduler key
  /// without a per-record virtual call. Valid for this Simulator's life.
  const Time* tie_clock() const { return &current_tie_; }

  Random& rng() { return rng_; }
  Scheduler& scheduler() { return scheduler_; }

 private:
  Scheduler scheduler_;
  Random rng_;
  Time now_ = 0.0;
  Time current_tie_ = 0.0;
  bool stopped_ = false;
  std::uint64_t events_run_ = 0;
};

}  // namespace burst
