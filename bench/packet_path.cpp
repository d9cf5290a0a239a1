// packet_path: the per-packet hot-path performance probe.
//
// Where bench/sched_events measures the scheduler in isolation, this
// bench measures what a simulation actually buys per packet: the full
// link hop (enqueue -> transmit -> deliver), the retransmit-timer rearm
// pattern (one Timer::schedule per ACK), and the fig02 Reno/RED
// heavy-congestion point end to end. Results go to a JSON file (default
// BENCH_packet_path.json); scripts/check_packet_path.py gates CI on the
// deterministic counters (events per hop) and on wall time normalized
// by the calibration row, so the gate is portable across machines.
//
// Rows:
//   calib_sched_pop_d64   pure scheduler schedule+pop cycle (calibration;
//                         identical workload to sched_events, untouched by
//                         link/timer changes — used to normalize wall time)
//   link_hop_saturated    one link with a standing queue backlog (the data
//                         direction of a congested dumbbell)
//   link_hop_idle         one packet at a time on an idle link (the ACK
//                         direction: queue empty at every send)
//   timer_rearm           Timer::schedule with an always-advancing deadline
//                         (the per-ACK RTO restart pattern)
//   timer_rearm_pending100000    the same pattern with 10^5 idle
//                         timers armed far-future (parked in the timing
//                         wheel; the rearm cost must not grow with them)
//   fig02_n60_reno_red    full N=60 Reno/RED experiment (the paper's
//                         heavy-congestion regime), ns per executed event
//   fig02_n60_reno_red_lp2    the same experiment on the conservative
//                         parallel engine with 2 LPs; counters must match
//                         the sequential row exactly (see check_parallel.py)
//   fig02_n60_reno_red_traced    same run with a TraceSink attached to
//                         every tap (the observability overhead row; the
//                         CI gate keeps its wall ratio honest)
//   fig02_n60_reno_red_lp2_traced    the traced run on 2 LPs, per-LP
//                         rings merged at the end; at most 1.5x the
//                         traced row's ns/op (see check_parallel.py)
//   fig02_n60_reno_red_profiled  same run with a Profiler installed;
//                         reports per-phase wall shares (dispatch /
//                         transport / queue). Ungated: the two clock
//                         reads per scope are the quantity under test
//
// Modes:
//   (default)  full runs: ~4e6 hops / 20 s simulated experiment
//   --smoke    CI-sized: ~4e5 hops, 2 s experiment
//
// Every workload is deterministic; wall times are best-of --repeat
// (default 3).
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "src/net/drop_tail_queue.hpp"
#include "src/net/link.hpp"
#include "src/obs/profile.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/timer.hpp"

namespace {

using namespace burst;
using namespace burst::bench;

Packet data_packet(std::int64_t seq) {
  Packet p;
  p.type = PacketType::kData;
  p.size_bytes = 1040;  // wire size of a paper data packet
  p.seq = seq;
  return p;
}

// One link carrying `hops` packet hops with `backlog` packets in flight:
// every delivery is replaced by a fresh send. A backlog of 50 keeps a
// standing queue (the bottleneck/data direction of a congested dumbbell,
// where the queue is never empty when a transmission completes); a
// backlog of 1 sends one packet at a time, so every send finds the queue
// empty and the transmitter free (the ACK direction).
ProbeRow link_hop_row(std::string name, std::uint64_t hops, int backlog,
                      int repeat) {
  std::uint64_t events = 0;
  const double wall = best_of(repeat, [&] {
    Simulator sim;
    SimplexLink link(sim, std::make_unique<DropTailQueue>(100000), 32e6,
                     ms(20));
    std::uint64_t done = 0;
    std::int64_t next_seq = 0;
    link.set_receiver([&](const Packet&) {
      if (++done >= hops) {
        sim.stop();
        return;
      }
      link.send(data_packet(next_seq++));
    });
    for (int i = 0; i < backlog; ++i) link.send(data_packet(next_seq++));
    const double t0 = now_s();
    sim.run();
    const double dt = now_s() - t0;
    events = sim.events_run();
    return dt;
  });
  ProbeRow r{std::move(name), hops, wall, {}};
  r.add("events_per_hop",
        static_cast<double>(events) / static_cast<double>(hops));
  return r;
}

// The retransmit-timer pattern: one Timer::schedule per simulated ACK,
// with a deadline that always advances (srtt-scale RTO, ms-scale ACK
// clock). The timer itself almost never fires — the cost under test is
// the rearm, the way TcpSender's RTO timer sees it.
//
// With `background` > 0, that many idle flows each keep an RTO
// armed at a far deadline: a mean-field-sized population that parks in
// the timing wheel's O(1) buckets, so the driving flow's rearm cost must
// stay at the unloaded row's level instead of growing with
// log(background) — what "heap depth tracks the horizon, not the flow
// count" looks like end to end.
ProbeRow timer_rearm_row(std::uint64_t ops, std::size_t background,
                         int repeat) {
  // The drive chain spans `ops` milliseconds of simulated time; run just
  // past it so every mode executes exactly `ops` drive steps (a fixed
  // horizon shorter than the chain would silently truncate the count the
  // ns/op division assumes), and park the idle population strictly
  // beyond the horizon so it stays armed for the whole measurement.
  const Time horizon = 0.001 * static_cast<double>(ops) + 1.0;
  const double wall = best_of(repeat, [&] {
    Simulator sim;
    Mix mix{5};
    std::vector<std::unique_ptr<Timer>> idle;
    idle.reserve(background);
    for (std::size_t i = 0; i < background; ++i) {
      idle.push_back(std::make_unique<Timer>(sim, [] {}));
      idle.back()->schedule(horizon + 3600.0 + 3600.0 * mix.next());
    }
    Timer rto(sim, [] {});
    std::uint64_t remaining = ops;
    std::function<void()> drive = [&] {
      rto.schedule(0.25);
      if (--remaining > 0) sim.schedule(0.001, [&] { drive(); });
    };
    sim.schedule(0.001, [&] { drive(); });
    const double t0 = now_s();
    sim.run(horizon);
    return now_s() - t0;
  });
  return {background > 0 ? "timer_rearm_pending" + std::to_string(background)
                         : "timer_rearm",
          ops, wall, {}};
}

// The paper's heavy-congestion point: N=60 clients (past the ~39-client
// saturation knee of Fig 2), Reno senders, RED gateway, ns per executed
// event. Three knobs make its variants:
//
// @p lp > 1 runs it on the conservative parallel engine (clients |
// gateway+server). The deterministic counters must match the
// sequential row exactly: every cross-LP delivery event replaces the
// fused local one 1:1. The wall ratio against the sequential row is the
// engine's speedup (>= 1x only with >= 2 hardware threads — on one core
// the windows serialize and the barriers are pure overhead, which is why
// scripts/check_parallel.py normalizes by the calibration row and gates
// speedup only on multicore hardware).
//
// @p traced attaches a TraceSink to every tap: what full observability
// costs per event. Tracing adds no scheduler events and consumes no RNG,
// so (sim_events, delivered) match the untraced row. The ring grows on
// demand as records land, so its allocation is part of the timed run; on
// 2 LPs each LP records into its own ring, merged at the end of the run
// (TraceSink::merge_from), also inside the timed run. The merged view is
// byte-identical to the lp=1 trace, so trace_records match the
// sequential traced row's (scripts/check_parallel.py enforces both
// pairings and caps the traced lp2 row at 1.5x the traced row's ns/op).
//
// @p profiled installs a Profiler and reports per-phase wall shares
// (dispatch / transport / queue) of the fastest repetition. Ungated —
// the scope clock reads shift absolute wall time, which is the price
// this row exists to report.
ProbeRow fig02_row(double duration, int repeat, int lp, bool traced,
                   bool profiled) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 60;
  sc.transport = Transport::kReno;
  sc.gateway = GatewayQueue::kRed;
  sc.duration = duration;
  std::uint64_t events = 0, delivered = 0, records = 0;
  double best_prof_wall = 1e99;
  Profiler best_prof;
  const double wall = best_of(repeat, [&] {
    TraceSink sink;  // allocates nothing until the first record
    ExperimentOptions opts;
    opts.lp_shards = lp;
    if (traced) opts.trace = &sink;
    Profiler prof;
    Profiler* prev = profiled ? Profiler::install(&prof) : nullptr;
    const double t0 = now_s();
    const ExperimentResult r = run_experiment(sc, opts);
    const double dt = now_s() - t0;
    if (profiled) {
      Profiler::install(prev);
      if (dt < best_prof_wall) {
        best_prof_wall = dt;
        best_prof = prof;
      }
    }
    events = r.sim_events ? r.sim_events : 1;
    delivered = r.delivered;
    records = sink.emitted();
    return dt;
  });

  std::string name = "fig02_n60_reno_red";
  if (lp > 1) name += "_lp" + std::to_string(lp);
  if (traced) name += "_traced";
  if (profiled) name += "_profiled";
  ProbeRow r{std::move(name), events, wall, {}};
  r.add("sim_events", events).add("delivered", delivered);
  if (traced) r.add("trace_records", records);
  if (profiled) {
    std::ostringstream phases;
    for (std::size_t ph = 0; ph < kProfilePhases; ++ph) {
      phases << (ph ? ", " : "{") << "\""
             << to_string(static_cast<ProfilePhase>(ph)) << "\": "
             << json_number(best_prof.seconds(static_cast<ProfilePhase>(ph)));
    }
    r.add_json("phase_seconds", phases.str() + "}");
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const ProbeArgs args =
      parse_probe_args(argc, argv, "packet_path", "BENCH_packet_path.json");
  const int repeat = args.repeat;
  const std::uint64_t hops = args.smoke ? 400'000 : 4'000'000;
  // full = the paper's 20 s
  const double exp_duration = args.smoke ? 2.0 : 20.0;

  std::vector<ProbeRow> rows;
  add_row(&rows,
          schedule_pop_row("calib_sched_pop_d64", hops * 2, 64, repeat));
  add_row(&rows, link_hop_row("link_hop_saturated", hops, 50, repeat));
  add_row(&rows, link_hop_row("link_hop_idle", hops, 1, repeat));
  add_row(&rows, timer_rearm_row(hops, 0, repeat));
  add_row(&rows, timer_rearm_row(hops, 100'000, repeat));
  // (lp, traced, profiled)
  add_row(&rows, fig02_row(exp_duration, repeat, 1, false, false));
  add_row(&rows, fig02_row(exp_duration, repeat, 2, false, false));
  add_row(&rows, fig02_row(exp_duration, repeat, 1, true, false));
  add_row(&rows, fig02_row(exp_duration, repeat, 2, true, false));
  add_row(&rows, fig02_row(exp_duration, repeat, 1, false, true));
  write_probe_json(args, "packet_path", rows);
  return 0;
}
