#include "src/sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace burst {
namespace {

TEST(Scheduler, StartsEmpty) {
  Scheduler s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.next_time(), kTimeNever);
}

TEST(Scheduler, RunsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(3.0, [&] { order.push_back(3); });
  s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_at(2.0, [&] { order.push_back(2); });
  while (!s.empty()) {
    auto r = s.take_next();
    r.fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, EqualTimesFireInScheduleOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  while (!s.empty()) s.take_next().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, NextTimeReportsEarliest) {
  Scheduler s;
  s.schedule_at(7.5, [] {});
  s.schedule_at(2.5, [] {});
  EXPECT_DOUBLE_EQ(s.next_time(), 2.5);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  EventId id = s.schedule_at(1.0, [&] { ran = true; });
  s.schedule_at(2.0, [] {});
  EXPECT_TRUE(s.pending(id));
  s.cancel(id);
  EXPECT_FALSE(s.pending(id));
  while (!s.empty()) s.take_next().fn();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelFiredEventIsNoOp) {
  Scheduler s;
  EventId id = s.schedule_at(1.0, [] {});
  s.take_next().fn();
  s.cancel(id);  // must not corrupt live count
  EXPECT_TRUE(s.empty());
  s.schedule_at(2.0, [] {});
  EXPECT_EQ(s.size(), 1u);
}

TEST(Scheduler, CancelInvalidIdIsNoOp) {
  Scheduler s;
  s.cancel(kInvalidEventId);
  s.cancel(9999);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, DoubleCancelIsNoOp) {
  Scheduler s;
  EventId id = s.schedule_at(1.0, [] {});
  s.schedule_at(2.0, [] {});
  s.cancel(id);
  s.cancel(id);
  EXPECT_EQ(s.size(), 1u);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler s;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) s.schedule_at(static_cast<double>(fired), chain);
  };
  s.schedule_at(0.0, chain);
  while (!s.empty()) s.take_next().fn();
  EXPECT_EQ(fired, 5);
}

TEST(Scheduler, SizeTracksCancellations) {
  Scheduler s;
  EventId a = s.schedule_at(1.0, [] {});
  s.schedule_at(2.0, [] {});
  EXPECT_EQ(s.size(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_FALSE(s.empty());
}

TEST(Scheduler, CancelledHeadIsSkipped) {
  Scheduler s;
  EventId a = s.schedule_at(1.0, [] {});
  bool ran_b = false;
  s.schedule_at(2.0, [&] { ran_b = true; });
  s.cancel(a);
  EXPECT_DOUBLE_EQ(s.next_time(), 2.0);
  s.take_next().fn();
  EXPECT_TRUE(ran_b);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, ScheduledCountIsCumulative) {
  Scheduler s;
  for (int i = 0; i < 4; ++i) s.schedule_at(1.0, [] {});
  while (!s.empty()) s.take_next().fn();
  EXPECT_EQ(s.scheduled_count(), 4u);
}

// Every event due after the current wheel tick waits in the timing wheel,
// in-flight packets as much as timers: with the current tick's event on
// the heap, 1000 events 1 ms to 1 s out all park in the wheel. A change
// that sends some events back to the heap fails here.
TEST(Scheduler, FutureEventsWaitInTheWheel) {
  Scheduler s;
  s.schedule_at(0.0, [] {});  // due within the cursor's tick: the heap
  for (int i = 0; i < 1000; ++i) {
    const Time at = 1e-3 + (1.0 - 1e-3) * i / 999.0;  // 1 ms .. 1 s out
    s.schedule_at(at, [] {});
  }
  EXPECT_EQ(s.wheel_size(), 1000u);
  EXPECT_EQ(s.size(), 1001u);
  EXPECT_EQ(s.peak_pending(), 1001u);
  EXPECT_DOUBLE_EQ(s.take_next().at, 0.0);
  // Popping the next settles its tick into the heap; the rest stay put.
  EXPECT_DOUBLE_EQ(s.take_next().at, 1e-3);
  EXPECT_EQ(s.wheel_size(), 999u);
}

// An event due before everything pending pops next, so it goes straight
// on the heap; the heap keeps at most one such event, so the one it held
// moves to the wheel. Pop order is unchanged.
TEST(Scheduler, TheNextEventSkipsTheWheel) {
  Scheduler s;
  s.schedule_at(5e-3, [] {});
  EXPECT_EQ(s.wheel_size(), 0u);  // alone: it pops next
  s.schedule_at(3e-3, [] {});
  EXPECT_EQ(s.wheel_size(), 1u);  // 3 ms pops next; 5 ms moved over
  s.schedule_at(10e-3, [] {});
  EXPECT_EQ(s.wheel_size(), 2u);  // due after both: the wheel
  EXPECT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.take_next().at, 3e-3);
  EXPECT_DOUBLE_EQ(s.take_next().at, 5e-3);
  EXPECT_DOUBLE_EQ(s.take_next().at, 10e-3);
  EXPECT_TRUE(s.empty());
}

}  // namespace
}  // namespace burst
