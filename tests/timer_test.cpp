#include "src/sim/timer.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "src/sim/random.hpp"

namespace burst {
namespace {

TEST(Timer, FiresAfterDelay) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.schedule(1.5);
  EXPECT_TRUE(t.pending());
  EXPECT_DOUBLE_EQ(t.expiry(), 1.5);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.pending());
}

TEST(Timer, CancelPreventsFiring) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.schedule(1.0);
  t.cancel();
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(t.pending());
}

TEST(Timer, RescheduleReplacesPendingExpiry) {
  Simulator sim;
  std::vector<Time> fire_times;
  Timer t(sim, [&] { fire_times.push_back(sim.now()); });
  t.schedule(1.0);
  t.schedule(3.0);  // replaces the 1.0 expiry
  sim.run();
  ASSERT_EQ(fire_times.size(), 1u);
  EXPECT_DOUBLE_EQ(fire_times[0], 3.0);
}

TEST(Timer, CanRescheduleFromCallback) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] {
    if (++fired < 3) t.schedule(1.0);
  });
  t.schedule(1.0);
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Timer, ExpiryIsNeverWhenIdle) {
  Simulator sim;
  Timer t(sim, [] {});
  EXPECT_EQ(t.expiry(), kTimeNever);
  EXPECT_FALSE(t.pending());
}

TEST(Timer, DestructorCancelsCleanly) {
  Simulator sim;
  int fired = 0;
  {
    Timer t(sim, [&] { ++fired; });
    t.schedule(1.0);
  }
  sim.run();  // must not crash or fire
  EXPECT_EQ(fired, 0);
}

TEST(Timer, CancelIdempotent) {
  Simulator sim;
  Timer t(sim, [] {});
  t.cancel();
  t.schedule(1.0);
  t.cancel();
  t.cancel();
  EXPECT_FALSE(t.pending());
}

// --- Soft deadlines -------------------------------------------------------
//
// The timer's contract: observable firing behaviour is identical to an
// exact timer's — the callback runs exactly once per elapsed deadline, at
// the *latest* scheduled deadline, and never after a cancel — while a
// deadline that only moves forward costs no scheduler traffic per move.

/// The differential reference: every schedule()/cancel() is a scheduler
/// insert/cancel, the classic one-event-per-(re)schedule timer.
class ExactTimer {
 public:
  ExactTimer(Simulator& sim, std::function<void()> on_fire)
      : sim_(sim), on_fire_(std::move(on_fire)) {}
  ~ExactTimer() { cancel(); }

  void schedule(Time delay) {
    cancel();
    id_ = sim_.schedule(delay, [this] {
      id_ = kInvalidEventId;
      on_fire_();
    });
  }
  void cancel() {
    if (id_ != kInvalidEventId) sim_.cancel(id_);
    id_ = kInvalidEventId;
  }
  bool pending() const { return id_ != kInvalidEventId; }

 private:
  Simulator& sim_;
  std::function<void()> on_fire_;
  EventId id_ = kInvalidEventId;
};

TEST(TimerLazy, RearmStormFiresOnceAtLatestDeadline) {
  Simulator sim;
  std::vector<Time> fires;
  Timer t(sim, [&] { fires.push_back(sim.now()); });
  t.schedule(1.0);
  // Push the deadline out from driver events at 0.2, 0.4, 0.6, 0.8 — the
  // per-ACK RTO restart pattern. Final deadline: 0.8 + 1.0 = 1.8.
  for (int i = 1; i <= 4; ++i) {
    sim.schedule(0.2 * i, [&] { t.schedule(1.0); });
  }
  sim.run();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_DOUBLE_EQ(fires[0], 1.8);
  // Scheduler traffic: 4 driver events + the initial arm + ONE chase
  // re-arm (at t=1.0 the armed event jumps straight to 1.8). An exact
  // timer would have inserted 5 times and cancelled 4.
  EXPECT_EQ(sim.scheduler().scheduled_count(), 4u + 2u);
}

TEST(TimerLazy, SoftMovesAreSchedulerFree) {
  Simulator sim;
  Timer t(sim, [] {});
  t.schedule(10.0);
  const std::uint64_t after_arm = sim.scheduler().scheduled_count();
  for (int i = 0; i < 1000; ++i) t.schedule(10.0 + i);  // forward-only moves
  EXPECT_EQ(sim.scheduler().scheduled_count(), after_arm);
  EXPECT_DOUBLE_EQ(t.expiry(), 10.0 + 999);
}

TEST(TimerLazy, CancelWhileArmedIsQuiet) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.schedule(1.0);
  sim.schedule(0.5, [&] { t.cancel(); });
  sim.run();  // the armed event still runs at 1.0 — as a silent no-op
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(t.pending());
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);  // the orphan event did run
}

TEST(TimerLazy, RescheduleAfterCancelReusesArmedEvent) {
  Simulator sim;
  std::vector<Time> fires;
  Timer t(sim, [&] { fires.push_back(sim.now()); });
  t.schedule(1.0);
  sim.schedule(0.3, [&] { t.cancel(); });
  // Re-scheduling before the orphaned event has fired soft-moves it
  // instead of inserting a second one.
  sim.schedule(0.6, [&] { t.schedule(2.0); });  // deadline 2.6
  const std::uint64_t drivers_plus_arm = 2u + 1u;
  sim.run();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_DOUBLE_EQ(fires[0], 2.6);
  // 2 drivers + initial arm + one chase from the reused event at t=1.0.
  EXPECT_EQ(sim.scheduler().scheduled_count(), drivers_plus_arm + 1u);
}

TEST(TimerLazy, ShrinkingDeadlineRearmsEagerly) {
  Simulator sim;
  std::vector<Time> fires;
  Timer t(sim, [&] { fires.push_back(sim.now()); });
  t.schedule(5.0);
  // A deadline that moves *backwards* cannot ride the armed event (it
  // would fire late); the timer must re-arm eagerly.
  sim.schedule(0.1, [&] { t.schedule(1.0); });  // deadline 1.1 < armed 5.0
  sim.run();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_DOUBLE_EQ(fires[0], 1.1);
}

TEST(TimerLazy, RandomScriptMatchesExactMode) {
  // Differential check: an exact and a lazy timer fed the identical
  // schedule/cancel script must produce identical fire-time sequences.
  for (std::uint64_t seed : {1u, 7u, 42u, 1234u}) {
    Random rng(seed);
    Simulator sim;
    std::vector<Time> exact_fires, lazy_fires;
    ExactTimer exact(sim, [&] { exact_fires.push_back(sim.now()); });
    Timer lazy(sim, [&] { lazy_fires.push_back(sim.now()); });
    Time at = 0.0;
    for (int i = 0; i < 300; ++i) {
      at += rng.uniform(0.0, 0.5);
      const double roll = rng.uniform();
      const Time delay = rng.uniform(0.05, 2.0);
      sim.schedule_at(at, [&exact, &lazy, roll, delay] {
        if (roll < 0.8) {
          exact.schedule(delay);
          lazy.schedule(delay);
        } else {
          exact.cancel();
          lazy.cancel();
        }
      });
    }
    sim.run();
    EXPECT_EQ(exact_fires, lazy_fires) << "seed " << seed;
    EXPECT_EQ(exact.pending(), lazy.pending()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace burst
