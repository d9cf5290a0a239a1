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
//   timer_rearm_pending100000    the same pattern with 10^5 idle kLazy
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
//   (default)  full runs: ~4e6 hops / 10 s simulated experiment
//   --smoke    CI-sized: ~4e5 hops, 2 s experiment
//
// Every workload is deterministic; wall times are best-of --repeat
// (default 3).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/core/experiment.hpp"
#include "src/net/drop_tail_queue.hpp"
#include "src/net/link.hpp"
#include "src/obs/profile.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/scheduler.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/timer.hpp"

namespace {

using namespace burst;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct BenchRow {
  std::string name;
  std::uint64_t ops = 0;   // packet hops, schedule calls, or sim events
  double wall_s = 0.0;     // best-of-repeat wall time
  double ns_per_op = 0.0;
  double ops_per_sec = 0.0;
  // Deterministic extras (negative / zero = not applicable for this row).
  double events_per_hop = -1.0;  // scheduler events per packet hop
  std::uint64_t sim_events = 0;  // events executed (end-to-end rows)
  std::uint64_t delivered = 0;   // packets delivered (end-to-end rows)
  std::uint64_t trace_records = 0;  // TraceSink records (traced row)
  bool profiled = false;            // phase_s below is meaningful
  std::array<double, kProfilePhases> phase_s{};  // per-phase self time
};

BenchRow finish(std::string name, std::uint64_t ops, double best_wall) {
  BenchRow r;
  r.name = std::move(name);
  r.ops = ops;
  r.wall_s = best_wall;
  r.ns_per_op = best_wall * 1e9 / static_cast<double>(ops);
  r.ops_per_sec = static_cast<double>(ops) / best_wall;
  return r;
}

// Cheap deterministic jitter (splitmix64), independent of src/sim/random.
struct Mix {
  std::uint64_t s;
  double next() {  // in [0, 1)
    s += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53;
  }
};

// Calibration: the steady-state schedule+pop cycle at heap depth 64,
// byte-for-byte the workload of sched_events' schedule_pop_d64. Link and
// timer changes do not touch this loop, so the ratio of any other row to
// this one is comparable across machines.
BenchRow bench_calibration(std::uint64_t ops, int repeat) {
  double best = 1e99;
  for (int rep = 0; rep < repeat; ++rep) {
    Scheduler s;
    Mix mix{42};
    Time now = 0.0;
    for (int i = 0; i < 64; ++i) s.schedule_at(mix.next(), [] {});
    const double t0 = now_s();
    for (std::uint64_t i = 0; i < ops; ++i) {
      auto ready = s.take_next();
      now = ready.at;
      s.schedule_at(now + mix.next(), [] {});
    }
    best = std::min(best, now_s() - t0);
    while (!s.empty()) s.take_next();
  }
  return finish("calib_sched_pop_d64", ops, best);
}

Packet data_packet(std::int64_t seq) {
  Packet p;
  p.type = PacketType::kData;
  p.size_bytes = 1040;  // wire size of a paper data packet
  p.seq = seq;
  return p;
}

// One link, kept saturated: a standing backlog of 50 packets, and every
// delivery is replaced by a fresh send. This is the bottleneck/data
// direction of a congested dumbbell, where the queue is never empty when
// a transmission completes.
BenchRow bench_link_saturated(std::uint64_t hops, int repeat) {
  double best = 1e99;
  std::uint64_t events = 0;
  for (int rep = 0; rep < repeat; ++rep) {
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
    for (int i = 0; i < 50; ++i) link.send(data_packet(next_seq++));
    const double t0 = now_s();
    sim.run();
    best = std::min(best, now_s() - t0);
    events = sim.events_run();
  }
  BenchRow r = finish("link_hop_saturated", hops, best);
  r.events_per_hop = static_cast<double>(events) / static_cast<double>(hops);
  return r;
}

// One packet at a time on an idle link: every send finds the queue empty
// and the transmitter free (the delivery arrives prop_delay after the
// transmitter went idle). This is the ACK direction of the dumbbell.
BenchRow bench_link_idle(std::uint64_t hops, int repeat) {
  double best = 1e99;
  std::uint64_t events = 0;
  for (int rep = 0; rep < repeat; ++rep) {
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
    link.send(data_packet(next_seq++));
    const double t0 = now_s();
    sim.run();
    best = std::min(best, now_s() - t0);
    events = sim.events_run();
  }
  BenchRow r = finish("link_hop_idle", hops, best);
  r.events_per_hop = static_cast<double>(events) / static_cast<double>(hops);
  return r;
}

// The retransmit-timer pattern: one Timer::schedule per simulated ACK,
// with a deadline that always advances (srtt-scale RTO, ms-scale ACK
// clock). The timer itself almost never fires — the cost under test is
// the rearm. Uses the same timer mode as TcpSender's RTO timer.
BenchRow bench_timer_rearm(std::uint64_t ops, int repeat) {
  double best = 1e99;
  for (int rep = 0; rep < repeat; ++rep) {
    Simulator sim;
    Timer rto(sim, [] {}, Timer::Mode::kLazy);
    std::uint64_t remaining = ops;
    std::function<void()> drive = [&] {
      rto.schedule(0.25);
      if (--remaining > 0) sim.schedule(0.001, [&] { drive(); });
    };
    sim.schedule(0.001, [&] { drive(); });
    const double t0 = now_s();
    sim.run();
    best = std::min(best, now_s() - t0);
  }
  return finish("timer_rearm", ops, best);
}

// The rearm pattern with a mean-field-sized population in the background:
// `background` idle flows each keep a kLazy RTO armed at a far deadline.
// Those park in the timing wheel's O(1) buckets, so the driving flow's
// rearm cost must stay at the timer_rearm row's level instead of growing
// with log(background) — this row is what "heap depth tracks the horizon,
// not the flow count" looks like end to end.
BenchRow bench_timer_rearm_pending(std::uint64_t ops, std::size_t background,
                                   int repeat) {
  double best = 1e99;
  // The drive chain spans `ops` milliseconds of simulated time; run just
  // past it so every mode executes exactly `ops` drive steps (a fixed
  // horizon shorter than the chain would silently truncate the count the
  // ns/op division assumes), and park the idle population strictly
  // beyond the horizon so it stays armed for the whole measurement.
  const Time horizon = 0.001 * static_cast<double>(ops) + 1.0;
  for (int rep = 0; rep < repeat; ++rep) {
    Simulator sim;
    Mix mix{5};
    std::vector<std::unique_ptr<Timer>> idle;
    idle.reserve(background);
    for (std::size_t i = 0; i < background; ++i) {
      idle.push_back(
          std::make_unique<Timer>(sim, [] {}, Timer::Mode::kLazy));
      idle.back()->schedule(horizon + 3600.0 + 3600.0 * mix.next());
    }
    Timer rto(sim, [] {}, Timer::Mode::kLazy);
    std::uint64_t remaining = ops;
    std::function<void()> drive = [&] {
      rto.schedule(0.25);
      if (--remaining > 0) sim.schedule(0.001, [&] { drive(); });
    };
    sim.schedule(0.001, [&] { drive(); });
    const double t0 = now_s();
    sim.run(horizon);
    best = std::min(best, now_s() - t0);
  }
  return finish("timer_rearm_pending" + std::to_string(background), ops,
                best);
}

// The paper's heavy-congestion point: N=60 clients (past the ~39-client
// saturation knee of Fig 2), Reno senders, RED gateway.
BenchRow bench_fig02_point(double duration, int repeat) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 60;
  sc.transport = Transport::kReno;
  sc.gateway = GatewayQueue::kRed;
  sc.duration = duration;
  double best = 1e99;
  std::uint64_t events = 0, delivered = 0;
  for (int rep = 0; rep < repeat; ++rep) {
    const double t0 = now_s();
    const ExperimentResult r = run_experiment(sc);
    best = std::min(best, now_s() - t0);
    events = r.sim_events ? r.sim_events : 1;
    delivered = r.delivered;
  }
  BenchRow r = finish("fig02_n60_reno_red", events, best);
  r.sim_events = events;
  r.delivered = delivered;
  return r;
}

// The same heavy-congestion point with a TraceSink attached to every tap:
// what full observability costs per event. The deterministic counters
// (sim_events, delivered) must match the untraced row exactly — tracing
// adds no scheduler events and consumes no RNG. The ring grows on demand
// as records land, so its allocation is part of the timed run.
BenchRow bench_fig02_traced(double duration, int repeat) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 60;
  sc.transport = Transport::kReno;
  sc.gateway = GatewayQueue::kRed;
  sc.duration = duration;
  double best = 1e99;
  std::uint64_t events = 0, delivered = 0, records = 0;
  for (int rep = 0; rep < repeat; ++rep) {
    TraceSink sink;  // allocates nothing until the first record
    ExperimentOptions opts;
    opts.trace = &sink;
    const double t0 = now_s();
    const ExperimentResult r = run_experiment(sc, opts);
    best = std::min(best, now_s() - t0);
    events = r.sim_events ? r.sim_events : 1;
    delivered = r.delivered;
    records = sink.emitted();
  }
  BenchRow r = finish("fig02_n60_reno_red_traced", events, best);
  r.sim_events = events;
  r.delivered = delivered;
  r.trace_records = records;
  return r;
}

// The same heavy-congestion point on the conservative parallel engine
// with 2 LPs (clients | gateway+server). The deterministic counters must
// match the untraced row exactly: every cross-LP delivery event replaces
// the fused local one 1:1. The wall ratio against the sequential row is
// the engine's speedup (≥ 1x only with ≥ 2 hardware threads — on one
// core the windows serialize and the barriers are pure overhead, which
// is why scripts/check_parallel.py normalizes by the calibration row and
// gates speedup only on multicore hardware).
BenchRow bench_fig02_lp2(double duration, int repeat) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 60;
  sc.transport = Transport::kReno;
  sc.gateway = GatewayQueue::kRed;
  sc.duration = duration;
  ExperimentOptions opts;
  opts.lp_shards = 2;
  double best = 1e99;
  std::uint64_t events = 0, delivered = 0;
  for (int rep = 0; rep < repeat; ++rep) {
    const double t0 = now_s();
    const ExperimentResult r = run_experiment(sc, opts);
    best = std::min(best, now_s() - t0);
    events = r.sim_events ? r.sim_events : 1;
    delivered = r.delivered;
  }
  BenchRow r = finish("fig02_n60_reno_red_lp2", events, best);
  r.sim_events = events;
  r.delivered = delivered;
  return r;
}

// The traced run on 2 LPs: each LP records into its own ring, merged at
// the end of the run (TraceSink::merge_from); ring growth and the merge
// are both inside the timed run. Event tracing still adds no scheduler
// events and consumes no RNG, so (sim_events, delivered) must match the
// untraced lp2 row — and trace_records must match the sequential traced
// row's, since the merged view is byte-identical to the lp=1 trace
// (scripts/check_parallel.py enforces both pairings and caps this row at
// 1.5x the sequential traced row's ns/op).
BenchRow bench_fig02_lp2_traced(double duration, int repeat) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 60;
  sc.transport = Transport::kReno;
  sc.gateway = GatewayQueue::kRed;
  sc.duration = duration;
  double best = 1e99;
  std::uint64_t events = 0, delivered = 0, records = 0;
  for (int rep = 0; rep < repeat; ++rep) {
    TraceSink sink;  // merge target; per-LP rings grow inside the run
    ExperimentOptions opts;
    opts.trace = &sink;
    opts.lp_shards = 2;
    const double t0 = now_s();
    const ExperimentResult r = run_experiment(sc, opts);
    best = std::min(best, now_s() - t0);
    events = r.sim_events ? r.sim_events : 1;
    delivered = r.delivered;
    records = sink.emitted();
  }
  BenchRow r = finish("fig02_n60_reno_red_lp2_traced", events, best);
  r.sim_events = events;
  r.delivered = delivered;
  r.trace_records = records;
  return r;
}

// The same point with a Profiler installed: per-phase wall attribution.
// Ungated — the scope clock reads shift absolute wall time, which is the
// price this row exists to report.
BenchRow bench_fig02_profiled(double duration, int repeat) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 60;
  sc.transport = Transport::kReno;
  sc.gateway = GatewayQueue::kRed;
  sc.duration = duration;
  double best = 1e99;
  std::uint64_t events = 0, delivered = 0;
  Profiler best_prof;
  for (int rep = 0; rep < repeat; ++rep) {
    Profiler prof;
    Profiler* prev = Profiler::install(&prof);
    const double t0 = now_s();
    const ExperimentResult r = run_experiment(sc);
    const double wall = now_s() - t0;
    Profiler::install(prev);
    if (wall < best) {
      best = wall;
      best_prof = prof;
    }
    events = r.sim_events ? r.sim_events : 1;
    delivered = r.delivered;
  }
  BenchRow r = finish("fig02_n60_reno_red_profiled", events, best);
  r.sim_events = events;
  r.delivered = delivered;
  r.profiled = true;
  for (std::size_t ph = 0; ph < kProfilePhases; ++ph) {
    r.phase_s[ph] = best_prof.seconds(static_cast<ProfilePhase>(ph));
  }
  return r;
}

void write_json(const std::string& path, const std::vector<BenchRow>& rows,
                bool smoke) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"bench\": \"packet_path\",\n  \"mode\": \""
      << (smoke ? "smoke" : "full") << "\",\n  \"schema\": 1,\n"
      << "  \"results\": [\n";
  out.precision(6);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    out << "    {\"name\": \"" << r.name << "\", \"ops\": " << r.ops
        << ", \"wall_s\": " << r.wall_s << ", \"ns_per_op\": " << r.ns_per_op
        << ", \"ops_per_sec\": " << r.ops_per_sec;
    if (r.events_per_hop >= 0.0) {
      out << ", \"events_per_hop\": " << r.events_per_hop;
    }
    if (r.sim_events > 0) {
      out << ", \"sim_events\": " << r.sim_events << ", \"delivered\": "
          << r.delivered;
    }
    if (r.trace_records > 0) {
      out << ", \"trace_records\": " << r.trace_records;
    }
    if (r.profiled) {
      out << ", \"phase_seconds\": {";
      for (std::size_t ph = 0; ph < kProfilePhases; ++ph) {
        out << (ph ? ", " : "") << "\""
            << to_string(static_cast<ProfilePhase>(ph))
            << "\": " << r.phase_s[ph];
      }
      out << "}";
    }
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  if (!out.flush()) {
    std::cerr << "packet_path: failed to write " << path << "\n";
    std::exit(1);
  }
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int repeat = 3;
  std::string out_path = "BENCH_packet_path.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--repeat=", 0) == 0) {
      repeat = std::max(1, std::atoi(arg.c_str() + 9));
    } else {
      std::cerr << "usage: packet_path [--smoke] [--repeat=N] [--out=PATH]\n";
      return 2;
    }
  }

  const std::uint64_t hops = smoke ? 400'000 : 4'000'000;
  const double exp_duration = smoke ? 2.0 : 20.0;  // full = the paper's 20 s

  std::vector<BenchRow> rows;
  rows.push_back(bench_calibration(hops * 2, repeat));
  rows.push_back(bench_link_saturated(hops, repeat));
  rows.push_back(bench_link_idle(hops, repeat));
  rows.push_back(bench_timer_rearm(hops, repeat));
  rows.push_back(bench_timer_rearm_pending(hops, 100'000, repeat));
  rows.push_back(bench_fig02_point(exp_duration, repeat));
  rows.push_back(bench_fig02_lp2(exp_duration, repeat));
  rows.push_back(bench_fig02_traced(exp_duration, repeat));
  rows.push_back(bench_fig02_lp2_traced(exp_duration, repeat));
  rows.push_back(bench_fig02_profiled(exp_duration, repeat));

  for (const BenchRow& r : rows) {
    std::cout << r.name << ": " << r.ns_per_op << " ns/op  ("
              << static_cast<std::uint64_t>(r.ops_per_sec) << " ops/s, wall "
              << r.wall_s << " s";
    if (r.events_per_hop >= 0.0) {
      std::cout << ", " << r.events_per_hop << " events/hop";
    }
    if (r.trace_records > 0) {
      std::cout << ", " << r.trace_records << " trace records";
    }
    std::cout << ")\n";
    if (r.profiled) {
      double total = 0.0;
      for (const double s : r.phase_s) total += s;
      std::cout << "  phases:";
      for (std::size_t ph = 0; ph < kProfilePhases; ++ph) {
        std::cout << " " << to_string(static_cast<ProfilePhase>(ph)) << " "
                  << (total > 0.0 ? 100.0 * r.phase_s[ph] / total : 0.0)
                  << "%";
      }
      std::cout << "\n";
    }
  }
  write_json(out_path, rows, smoke);
  return 0;
}
