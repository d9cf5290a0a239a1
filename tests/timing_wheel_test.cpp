// TimingWheel unit tests: surrender order across levels and the far
// list, true removal, and the cached min_at_bound(). The Scheduler that
// parks events in the wheel is fuzzed against an ordered-set model in
// scheduler_fuzz_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/sim/random.hpp"
#include "src/sim/timing_wheel.hpp"

namespace burst {
namespace {

using Entry = TimingWheel::Entry;

// A surrendered entry and the id it was inserted under.
struct Popped {
  std::uint32_t id;
  Entry e;
};

// pop_earliest() into @p out.
void pop_into(TimingWheel& wheel, std::vector<Popped>& out) {
  wheel.pop_earliest(
      [&out](std::uint32_t id, const Entry& e) { out.push_back({id, e}); });
}

// Drains the wheel through pop_earliest, asserting the surrender-order
// invariant (each batch's minimum `at` is >= every previously surrendered
// entry's `at`), and returns all entries in surrender order.
std::vector<Popped> drain(TimingWheel& wheel) {
  std::vector<Popped> out;
  Time last_batch_max = -1.0;
  std::vector<Popped> batch;
  while (!wheel.empty()) {
    batch.clear();
    pop_into(wheel, batch);
    EXPECT_FALSE(batch.empty());
    Time batch_min = kTimeNever;
    Time batch_max = -1.0;
    for (const Popped& p : batch) {
      batch_min = std::min(batch_min, p.e.at);
      batch_max = std::max(batch_max, p.e.at);
    }
    // A batch is one level-0 tick; ticks surrender in increasing order,
    // so no later batch may contain an earlier `at`.
    if (last_batch_max >= 0.0) {
      EXPECT_GE(batch_min, last_batch_max)
          << "bucket surrendered out of tick order";
    }
    last_batch_max = std::max(last_batch_max, batch_max);
    out.insert(out.end(), batch.begin(), batch.end());
  }
  return out;
}

TEST(TimingWheel, SingleEntryRoundTrips) {
  TimingWheel wheel(1e-3);
  EXPECT_TRUE(wheel.empty());
  EXPECT_EQ(wheel.min_at_bound(), kTimeNever);
  ASSERT_TRUE(wheel.accepts(0.5));
  wheel.insert(42, {0.5, 0.1, 7});
  EXPECT_EQ(wheel.size(), 1u);
  EXPECT_LE(wheel.min_at_bound(), 0.5);
  std::vector<Popped> out;
  pop_into(wheel, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].e.at, 0.5);
  EXPECT_DOUBLE_EQ(out[0].e.tie_time, 0.1);
  EXPECT_EQ(out[0].e.seq, 7u);
  EXPECT_EQ(out[0].id, 42u);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimingWheel, RejectsCurrentTick) {
  TimingWheel wheel(1e-3);
  // Tick 0 is the cursor's tick: not strictly in the future.
  EXPECT_FALSE(wheel.accepts(0.0));
  EXPECT_FALSE(wheel.accepts(0.9e-3));
  EXPECT_TRUE(wheel.accepts(1.1e-3));
}

TEST(TimingWheel, SurrendersInTickOrderAcrossLevels) {
  // Spread entries over ~5 decades of ticks so every level (and the far
  // list) is populated: granularity 1 µs puts t=2000 s past 64^5 ticks.
  TimingWheel wheel(1e-6);
  Random rng(99);
  std::vector<Time> ats;
  for (int i = 0; i < 2000; ++i) {
    const double mag = rng.uniform(0.0, 9.0);  // 1e-5 .. 1e4 seconds
    const Time at = 1e-5 * std::pow(10.0, mag);
    if (!wheel.accepts(at)) continue;
    wheel.insert(static_cast<std::uint32_t>(i),
                 {at, 0.0, static_cast<std::uint64_t>(i)});
    ats.push_back(at);
  }
  ASSERT_GT(ats.size(), 1900u);
  const std::vector<Popped> out = drain(wheel);
  ASSERT_EQ(out.size(), ats.size());
  // Same multiset of times, each under the id it went in with, and
  // coarse levels actually cascaded.
  std::vector<Time> drained;
  for (const Popped& p : out) {
    EXPECT_EQ(p.id, p.e.seq);
    drained.push_back(p.e.at);
  }
  std::sort(ats.begin(), ats.end());
  std::vector<Time> sorted = drained;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, ats);
  EXPECT_GT(wheel.cascades(), 0u);
}

TEST(TimingWheel, RemoveUnlinksAndFreesSlot) {
  TimingWheel wheel(1e-3);
  wheel.insert(10, {0.25, 0.0, 1});
  wheel.insert(11, {0.25, 0.0, 2});
  wheel.insert(12, {0.75, 0.0, 3});
  wheel.remove(11);
  EXPECT_EQ(wheel.size(), 2u);
  // The id is free again and can go back in.
  wheel.insert(11, {0.5, 0.0, 4});
  const std::vector<Popped> out = drain(wheel);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].id, 10u);
  EXPECT_EQ(out[1].id, 11u);
  EXPECT_EQ(out[1].e.seq, 4u);
  EXPECT_EQ(out[2].id, 12u);
}

TEST(TimingWheel, RemoveHeadOfBucket) {
  TimingWheel wheel(1e-3);
  wheel.insert(10, {0.25, 0.0, 1});
  // Most-recent insert is the list head; removing it must keep the rest.
  wheel.insert(11, {0.2504, 0.0, 2});
  wheel.remove(11);
  const std::vector<Popped> out = drain(wheel);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 10u);
}

TEST(TimingWheel, MinAtBoundNeverExceedsResidentMin) {
  // The bound is cached: lowered on insert, recomputed when a bucket is
  // surrendered or the minimum removed. Over a random insert / remove /
  // pop_earliest mix it may sit below the earliest resident, never above
  // it: a high bound would let the scheduler pop the heap past a wheel
  // resident.
  TimingWheel wheel(1e-3);
  Random rng(7);
  struct Live {
    Time at;
    std::uint32_t id;
  };
  std::vector<Live> live;
  std::vector<Popped> out;
  Time floor_at = 0.0;  // nothing earlier than the last surrender
  int pops = 0;
  for (int i = 0; i < 4000; ++i) {
    const double op = rng.uniform();
    const auto id = static_cast<std::uint32_t>(i);
    if (op < 0.5) {
      const Time at = floor_at + rng.uniform(0.0, 50.0);
      if (wheel.accepts(at)) {
        wheel.insert(id, {at, 0.0, id});
        live.push_back({at, id});
      }
    } else if (op < 0.75 && !live.empty()) {
      const auto idx = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live.size()) - 1));
      wheel.remove(live[idx].id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (!wheel.empty()) {
      out.clear();
      pop_into(wheel, out);
      ++pops;
      for (const Popped& p : out) {
        const auto it = std::find_if(
            live.begin(), live.end(),
            [&p](const Live& l) { return l.id == p.id; });
        ASSERT_NE(it, live.end());
        live.erase(it);
        floor_at = std::max(floor_at, p.e.at);
      }
    }
    Time true_min = kTimeNever;
    for (const Live& l : live) true_min = std::min(true_min, l.at);
    ASSERT_EQ(wheel.size(), live.size());
    EXPECT_LE(wheel.min_at_bound(), true_min) << "step " << i;
    if (live.empty()) {
      EXPECT_EQ(wheel.min_at_bound(), kTimeNever);
    }
  }
  EXPECT_GT(pops, 100);
}

TEST(TimingWheel, FarListRefillsWhenLevelsDrain) {
  // Granularity 1 ns: 64^5 ticks ~= 1.07 s, so seconds-scale deadlines
  // land in the far list and must re-bucket when the levels empty.
  TimingWheel wheel(1e-9);
  wheel.insert(1, {2.0, 0.0, 1});
  wheel.insert(2, {5.0, 0.0, 2});
  wheel.insert(3, {0.5, 0.0, 3});  // in-level
  std::vector<Popped> out;
  pop_into(wheel, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].e.at, 0.5);
  const std::vector<Popped> rest = drain(wheel);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_DOUBLE_EQ(rest[0].e.at, 2.0);
  EXPECT_DOUBLE_EQ(rest[1].e.at, 5.0);
}

}  // namespace
}  // namespace burst
