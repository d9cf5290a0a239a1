// sched_events: the event-core performance probe.
//
// Measures the scheduler hot loop in isolation (schedule/pop, with and
// without cancellations, at the pending counts a paper run actually sees)
// plus a timer-chain and a full N=100-client Reno/RED experiment, and
// writes the numbers to a JSON file (default BENCH_sched.json) so the
// perf trajectory across PRs has data instead of folklore.
//
// Modes:
//   (default)  full runs: ~1e7 hot-loop ops
//   --smoke    CI-sized: ~1e6 ops (seconds of wall time); the 10 s
//              simulated experiment row is identical in both modes
//
// Every workload is deterministic (fixed seeds, fixed op mixes); wall
// times are best-of --repeat (default 3) to shed scheduler noise.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "src/sim/scheduler.hpp"
#include "src/sim/simulator.hpp"

namespace {

using namespace burst;
using namespace burst::bench;

// The schedule+pop loop with a cancellation mix: TCP retransmit timers
// are rearmed on (almost) every ACK, so cancels are a first-class hot-path
// operation.
ProbeRow schedule_cancel_pop_row(std::uint64_t ops, std::size_t depth,
                                 int repeat) {
  const double wall = best_of(repeat, [&] {
    Scheduler s;
    Mix mix{7};
    Time now = 0.0;
    std::vector<EventId> live(depth, kInvalidEventId);
    for (std::size_t i = 0; i < depth; ++i) {
      live[i] = s.schedule_at(mix.next(), [] {});
    }
    const double t0 = now_s();
    for (std::uint64_t i = 0; i < ops; ++i) {
      // Rearm a pseudo-random timer: cancel + schedule, then pop one.
      const std::size_t k = static_cast<std::size_t>(mix.next() * depth);
      s.cancel(live[k]);
      live[k] = s.schedule_at(now + mix.next(), [] {});
      auto ready = s.take_next();
      now = ready.at;
      const std::size_t j = static_cast<std::size_t>(mix.next() * depth);
      if (!s.pending(live[j])) live[j] = s.schedule_at(now + mix.next(), [] {});
    }
    return now_s() - t0;
  });
  // 3 scheduler ops (cancel, schedule, pop) + 1 pending probe per iter.
  return {"schedule_cancel_pop_d" + std::to_string(depth), ops * 4, wall, {}};
}

// The mean-field steady state: `pending` timers permanently armed while
// the hot loop pops the earliest and re-arms it over a fixed horizon.
// Every re-arm parks in the timing wheel (O(1)) and the heap holds only
// the current tick, so the cost tracks the near-term horizon rather than
// the armed population (EXPERIMENTS.md records the sweep).
ProbeRow pop_rearm_row(std::uint64_t ops, std::size_t pending, int repeat) {
  constexpr Time kHorizon = 2.0;  // seconds of re-arm spread (RTO-scale)
  // The wheel's O(1) is amortized: cascades of coarse buckets land in
  // bursts as the cursor crosses level boundaries. A timed window
  // shorter than one full pass over the population samples an arbitrary
  // cascade phase (deterministically, since the op mix is fixed), so
  // time at least `pending` ops — every phase appears exactly once.
  const std::uint64_t timed_ops = std::max<std::uint64_t>(ops, pending);
  const double wall = best_of(repeat, [&] {
    Scheduler s;
    Mix mix{1234};
    Time now = 0.0;
    const auto rearm = [&s, &now](Time at) { s.schedule_at(at, [] {}, now); };
    for (std::size_t i = 0; i < pending; ++i) {
      rearm(now + kHorizon * (0.5 + 0.5 * mix.next()));
    }
    // Untimed warm-up: pop/re-arm once through the whole initial cohort.
    // Arming `pending` deadlines from time zero piles them into a few
    // coarse wheel buckets whose one-off cascade cost would otherwise be
    // amortized over however many timed ops the mode runs — making ns/op
    // depend on --smoke vs full. The timed loop below sees steady state.
    for (std::size_t i = 0; i < pending; ++i) {
      auto ready = s.take_next();
      now = ready.at;
      rearm(now + kHorizon * (0.5 + 0.5 * mix.next()));
    }
    const double t0 = now_s();
    for (std::uint64_t i = 0; i < timed_ops; ++i) {
      auto ready = s.take_next();
      now = ready.at;
      rearm(now + kHorizon * (0.5 + 0.5 * mix.next()));
    }
    return now_s() - t0;
  });
  return {"pop_rearm_p" + std::to_string(pending), timed_ops, wall, {}};
}

ProbeRow timer_chain_row(std::uint64_t events, int repeat) {
  const double wall = best_of(repeat, [&] {
    Simulator sim;
    std::uint64_t remaining = events;
    std::function<void()> tick = [&] {
      if (--remaining > 0) sim.schedule(0.001, tick);
    };
    sim.schedule(0.001, tick);
    const double t0 = now_s();
    sim.run();
    return now_s() - t0;
  });
  return {"timer_chain", events, wall, {}};
}

ProbeRow experiment_row(double duration, int repeat) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 100;
  sc.transport = Transport::kReno;
  sc.gateway = GatewayQueue::kRed;
  sc.duration = duration;
  std::uint64_t events = 0;
  const double wall = best_of(repeat, [&] {
    const double t0 = now_s();
    const ExperimentResult r = run_experiment(sc);
    const double dt = now_s() - t0;
    events = r.sim_events ? r.sim_events : 1;
    return dt;
  });
  return {"experiment_n100_reno_red", events, wall, {}};
}

}  // namespace

int main(int argc, char** argv) {
  const ProbeArgs args =
      parse_probe_args(argc, argv, "sched_events", "BENCH_sched.json");
  const int repeat = args.repeat;
  const std::uint64_t hot_ops = args.smoke ? 1'000'000 : 10'000'000;
  // The experiment row runs the full 10 s in both modes: it is cheap
  // (~60 ms wall) and the first seconds are slow-start transient, so a
  // shorter smoke run would measure a different per-event cost mix than
  // the baseline and the regression gate would compare apples to pears.
  const double exp_duration = 10.0;

  std::vector<ProbeRow> rows;
  // The hot loop at the pending counts a Table-1 N=60 run sees (a few
  // hundred events: one per timer/in-flight packet).
  for (const std::size_t depth : {std::size_t{64}, std::size_t{512}}) {
    add_row(&rows, schedule_pop_row("schedule_pop_d" + std::to_string(depth),
                                    hot_ops, depth, repeat));
  }
  add_row(&rows, schedule_cancel_pop_row(hot_ops / 2, 512, repeat));
  // Armed-timer sweep: 10^3..10^6 timers pending.
  for (const std::size_t pending :
       {std::size_t{1000}, std::size_t{10000}, std::size_t{100000},
        std::size_t{1000000}}) {
    add_row(&rows, pop_rearm_row(hot_ops / 10, pending, repeat));
  }
  add_row(&rows, timer_chain_row(hot_ops / 2, repeat));
  add_row(&rows, experiment_row(exp_duration, repeat));
  write_probe_json(args, "sched_events", rows);
  return 0;
}
