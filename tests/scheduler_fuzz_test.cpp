// Randomized differential test: the Scheduler (timing wheel + heap)
// against a naive reference model (sorted map), over thousands of
// interleaved schedule / reserve / cancel / run operations.
//
// The model mirrors the full ordering contract: events pop by
// (at, tie_time, seq), where seq is the scheduler's monotone insertion
// counter — consumed by schedule_at() AND reserve_order() alike — so the
// fused-event machinery (explicit tie times, ranks reserved early and
// redeemed later; see SimplexLink) and deadlines within and beyond the
// current wheel tick are exercised against the same oracle as plain FIFO
// scheduling. After every step the two must agree on size, next_time and
// pending; the script also covers events at `now` while the wheel cursor
// lags, cancels of heap and of wheel residents, and events that pop next
// and so take the heap from an event it held, and counts that each case
// occurred. The model also predicts exactly which cancels are stale
// (target already fired or cancelled), pinning Scheduler::stale_cancels()
// — well-behaved components must never rely on the generation-tag no-op.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "src/sim/random.hpp"
#include "src/sim/scheduler.hpp"

namespace burst {
namespace {

using Key = std::tuple<Time, Time, std::uint64_t>;  // (at, tie_time, seq)

struct Reference {
  std::map<Key, int> pending;  // key -> label
  std::map<EventId, Key> by_id;

  void schedule(Key key, EventId id, int label) {
    pending[key] = label;
    by_id[id] = key;
  }
  bool is_pending(EventId id) const {
    auto it = by_id.find(id);
    return it != by_id.end() && pending.count(it->second) > 0;
  }
  void cancel(EventId id) {
    auto it = by_id.find(id);
    if (it != by_id.end()) pending.erase(it->second);
  }
  Time next_time() const {
    return pending.empty() ? kTimeNever : std::get<0>(pending.begin()->first);
  }
  int pop() {
    auto it = pending.begin();
    const int label = it->second;
    pending.erase(it);
    return label;
  }
};

class SchedulerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerFuzz, MatchesReferenceModel) {
  Random rng(GetParam());
  Scheduler sched;
  Reference ref;
  std::vector<EventId> live_ids;
  // (order, tie_time) pairs reserved but not yet redeemed.
  std::vector<std::pair<std::uint64_t, Time>> reservations;
  std::vector<int> fired;  // labels, in execution order
  Time now = 0.0;
  // Mirrors the scheduler's internal seq counter (starts at 1); validated
  // against reserve_order()'s return values below.
  std::uint64_t model_seq = 1;
  std::uint64_t expected_stale = 0;
  int next_label = 0;
  // How often each case the script aims at occurred.
  int wheel_cancels = 0;
  int heap_cancels = 0;
  int lagging_inserts = 0;  // events at `now` parked in the wheel
  int displaced = 0;  // an event that pops next took the heap's only one
  int as_of = 0;
  int redeemed = 0;

  auto make_fn = [&fired](int label) {
    return [&fired, label] { fired.push_back(label); };
  };
  // Plain or as-of schedule at @p at; returns the new id.
  auto add = [&](Time at, Time tie) {
    const int label = next_label++;
    const std::uint64_t seq = model_seq++;
    const std::size_t wheel_before = sched.wheel_size();
    const std::size_t heap_before = sched.size() - wheel_before;
    const EventId id = sched.schedule_at(at, make_fn(label), tie);
    ref.schedule({at, tie, seq}, id, label);
    live_ids.push_back(id);
    if (heap_before == 1 && sched.wheel_size() == wheel_before + 1 &&
        ref.pending.begin()->second == label) {
      ++displaced;
    }
    return id;
  };
  auto pop_one = [&] {
    // Run one event; the model must agree on which one.
    const Time t = sched.next_time();
    EXPECT_GE(t, now);
    now = t;
    const int expected = ref.pop();
    auto ready = sched.take_next();
    EXPECT_DOUBLE_EQ(ready.at, t);
    ready.fn();
    ASSERT_FALSE(fired.empty());
    EXPECT_EQ(fired.back(), expected)
        << "scheduler popped a different event than the model at t=" << t;
  };

  for (int step = 0; step < 8000; ++step) {
    const double op = rng.uniform();
    if (op < 0.22) {
      // Plain schedule: tie_time == "now", the Simulator default — FIFO.
      add(now + rng.uniform(0.0, 10.0), now);
    } else if (op < 0.40) {
      // Deadlines from this instant to far future: within the current
      // wheel tick (the heap), up to 500 s out (the wheel's coarse
      // levels); a burst of duplicates at one instant exercises FIFO ties
      // between heap and wheel residents.
      const double kind = rng.uniform();
      Time at;
      if (kind < 0.1) {
        at = now;
      } else if (kind < 0.3) {
        at = now + rng.uniform(0.0, 1e-3);
      } else if (kind < 0.85) {
        at = now + rng.uniform(0.0, 30.0);
      } else {
        at = now + rng.uniform(0.0, 500.0);
      }
      const int reps = rng.uniform() < 0.1 ? 3 : 1;
      for (int r = 0; r < reps; ++r) add(at, now);
    } else if (op < 0.50) {
      // Fused-style schedule: an explicit virtual insertion instant in
      // the past splices the event ahead of same-time FIFO peers.
      const Time at =
          now + (rng.uniform() < 0.3 ? 0.0 : rng.uniform(0.0, 10.0));
      add(at, rng.uniform(0.0, now == 0.0 ? 1e-9 : now));
      ++as_of;
    } else if (op < 0.55) {
      // Reserve a rank now, redeem it later (possibly much later).
      const std::uint64_t order = sched.reserve_order();
      EXPECT_EQ(order, model_seq);  // the counters must track in lockstep
      ++model_seq;
      reservations.emplace_back(order, now);
    } else if (op < 0.62 && !reservations.empty()) {
      // Redeem the oldest reservation: the event must sort as if it had
      // been inserted back when the rank was reserved.
      const auto [order, tie] = reservations.front();
      reservations.erase(reservations.begin());
      const Time at = now + rng.uniform(0.0, 10.0);
      const int label = next_label++;
      const EventId id =
          sched.schedule_at_reserved(at, tie, order, make_fn(label));
      ref.schedule({at, tie, order}, id, label);
      live_ids.push_back(id);
      ++redeemed;
    } else if (op < 0.72 && !live_ids.empty()) {
      // Cancel a random id (possibly already fired -> no-op both sides).
      // Half the cancels aim at the newest events, which include the
      // current tick's heap residents; the rest hit anything ever issued.
      const auto n = static_cast<std::int64_t>(live_ids.size());
      const std::int64_t lo =
          rng.uniform() < 0.5 ? std::max<std::int64_t>(0, n - 8) : 0;
      const EventId id =
          live_ids[static_cast<std::size_t>(rng.uniform_int(lo, n - 1))];
      const bool was_pending = sched.pending(id);
      EXPECT_EQ(was_pending, ref.is_pending(id));
      if (!was_pending) ++expected_stale;  // fired/cancelled target
      const std::size_t wheel_before = sched.wheel_size();
      ref.cancel(id);
      sched.cancel(id);
      if (was_pending) {
        ++(sched.wheel_size() < wheel_before ? wheel_cancels : heap_cancels);
      }
    } else if (op < 0.725) {
      // Drain, then move the clock on with nothing pending, as
      // Simulator::run(until) does over an empty queue: the wheel cursor
      // now lags `now`, so events at `now` itself park in the wheel.
      while (!ref.pending.empty()) pop_one();
      now += rng.uniform(0.5, 50.0);
      for (int r = 0; r < 3; ++r) {
        const std::size_t wheel_before = sched.wheel_size();
        add(now, r == 2 ? rng.uniform(0.0, now) : now);
        if (sched.wheel_size() > wheel_before) ++lagging_inserts;
      }
    } else if (!sched.empty()) {
      ASSERT_FALSE(ref.pending.empty());
      pop_one();
    }
    ASSERT_EQ(sched.size(), ref.pending.size()) << "step " << step;
    ASSERT_EQ(sched.empty(), ref.pending.empty());
    EXPECT_EQ(sched.next_time(), ref.next_time()) << "step " << step;
    for (int k = 0; k < 4 && !live_ids.empty(); ++k) {
      const EventId id =
          k == 0 ? live_ids.back()
                 : live_ids[static_cast<std::size_t>(rng.uniform_int(
                       0, static_cast<std::int64_t>(live_ids.size()) - 1))];
      EXPECT_EQ(sched.pending(id), ref.is_pending(id));
    }
  }
  // Drain; execution order must match the model to the end.
  while (!sched.empty()) {
    ASSERT_FALSE(ref.pending.empty());
    pop_one();
  }
  EXPECT_TRUE(ref.pending.empty());
  EXPECT_EQ(sched.next_time(), kTimeNever);
  // Every stale cancel was predicted by the model: the counter is exact,
  // so a component double-cancelling (see the traffic sources) shows up.
  EXPECT_EQ(sched.stale_cancels(), expected_stale);
  // The script must have reached every case it names.
  EXPECT_GT(wheel_cancels, 0);
  EXPECT_GT(heap_cancels, 0);
  EXPECT_GT(lagging_inserts, 0);
  EXPECT_GT(displaced, 0);
  EXPECT_GT(as_of, 0);
  EXPECT_GT(redeemed, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFuzz,
                         ::testing::Values(1u, 2u, 3u, 11u, 27u, 42u, 301u,
                                           1234u, 4096u));

}  // namespace
}  // namespace burst
