// fig_meanfield: the huge-N mean-field probe.
//
// Sweeps the dumbbell's client count on a log grid with mean-field
// scaling on (meanfield_base = 60: bottleneck bandwidth, gateway buffer
// and RED thresholds all grow with N, so per-flow capacity is constant)
// and measures, per N:
//
//   * the c.o.v. of gateway arrivals per RTT bin — stochastic
//     fluctuations decay like 1/sqrt(N), but the McDonald–Reynier limit
//     itself is a deterministic RED/TCP oscillation, so the c.o.v.
//     saturates at the limit cycle's amplitude (~0.10) instead of
//     vanishing;
//   * the mean RED occupancy seen by arriving packets (PASTA), compared
//     against the closed-form mean-field fixed point
//     (src/stats/meanfield.hpp);
//   * the TCP agents' footprint in bytes per flow after the run (sender
//     and sink objects plus each sender's send-time ring), against a hard
//     per-flow budget so per-flow state can never silently regrow;
//   * events and wall time, so scripts/check_meanfield.py can gate the
//     perf trajectory (normalized by the calibration row).
//
// Modes:
//   (default)  N in {100, 1000, 10000, 100000}
//   --smoke    CI-sized: N in {100, 1000, 10000}
//
// Per-N rows use fixed simulated durations (identical in both modes) so
// smoke and full runs produce comparable rows. Output: JSON (default
// BENCH_meanfield.json) in the same shape as sched_events/packet_path,
// with per-row "extra" metrics appended.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "src/obs/flight_recorder.hpp"
#include "src/stats/meanfield.hpp"

namespace {

using namespace burst;
using namespace burst::bench;

// Hard per-flow budget (bytes) for the TCP agents: the sender and sink
// objects plus the sender's send-time ring. scripts/check_meanfield.py
// fails a row over it; the PoissonSource (its mt19937_64 state) is not
// counted.
constexpr std::size_t kBudgetPerFlowBytes = 2048;

Scenario meanfield_scenario(int clients, Time duration) {
  Scenario sc = Scenario::paper_default();
  sc.transport = Transport::kReno;
  sc.gateway = GatewayQueue::kRed;
  sc.meanfield_base = 60;
  sc.num_clients = clients;
  sc.duration = duration;
  return sc;
}

/// Simulated seconds per N: big N earns its statistics from population
/// averaging, so the horizon shrinks as the event rate grows.
Time duration_for(int clients) {
  if (clients >= 100000) return 6.0;
  if (clients >= 10000) return 10.0;
  return 20.0;
}

// @p lp_shards > 1 runs the same scenario on the conservative parallel
// engine (clients sharded | gateway | server); the dynamics — cov,
// occupancy, drops, events — must match the sequential row at the same N
// (scripts/check_parallel.py enforces events exactly), only the wall
// clock may differ.
//
// @p flight attaches the fixed-budget flight recorder (DESIGN.md §14.3):
// the huge-N observability story. Sampler events DO change the event
// count (they are real scheduler work), so FR rows are not gated on
// event exactness — check_parallel.py instead holds their wall clock
// within 5% of the matching untraced row and their sample budget fixed.
// The sequential rows also report their c.o.v. through @p cov, for the
// in-run decay check.
ProbeRow run_meanfield(int clients, int lp_shards = 1, bool flight = false,
                       double* cov = nullptr) {
  const Scenario sc = meanfield_scenario(clients, duration_for(clients));

  std::unique_ptr<FlightRecorder> fr;
  if (flight) {
    // 1024-sample cap: 128 KiB reserved, exactly the 64-flow ceiling
    // below; the 6 s run then never needs to decimate at the 0.1 s
    // default cadence.
    FlightRecorderOptions fopts;
    fopts.max_samples = 1024;
    fr = std::make_unique<FlightRecorder>(fopts);
  }
  ExperimentOptions opts;
  opts.lp_shards = lp_shards;
  opts.flight = fr.get();

  const ExperimentResult res = run_experiment(sc, opts);

  // The recorder's whole budget must stay negligible next to the flows
  // it observes — the point of sampling instead of tracing.
  if (fr && fr->bytes_reserved() > kBudgetPerFlowBytes * 64) {
    std::cerr << "fig_meanfield: flight-recorder budget "
              << fr->bytes_reserved() << " B exceeds its ceiling\n";
    std::exit(1);
  }

  std::string name = "meanfield_n" + std::to_string(clients);
  if (res.lp_shards > 1) name += "_lp" + std::to_string(res.lp_shards);
  if (flight) name += "_fr";
  ProbeRow r{std::move(name), res.sim_events, res.sim_wall_s, {}};

  MeanfieldParams mp;
  mp.capacity_pps = sc.bottleneck_pps();  // already mean-field scaled
  mp.base_rtt = sc.rtt_prop();
  mp.num_flows = clients;
  mp.red_min_th = sc.scaled_red_min_th();
  mp.red_max_th = sc.scaled_red_max_th();
  mp.red_max_p = sc.red_max_p;
  mp.max_window = sc.advertised_window;
  const MeanfieldFixedPoint fp = red_meanfield_fixed_point(mp);

  // Queue occupancy seen by arriving data packets (PASTA), in packets.
  const MetricPoint* qlen =
      res.metrics.find("queue.gateway.len_at_arrival");
  const double queue_mean =
      qlen == nullptr || qlen->value == 0.0 ? 0.0 : qlen->sum / qlen->value;
  if (cov != nullptr) *cov = res.cov;
  r.add("clients", static_cast<std::uint64_t>(clients))
      .add("cov", res.cov)  // c.o.v. of arrivals per RTT bin
      .add("queue_mean", queue_mean)
      .add("queue_fixed_point", fp.converged ? fp.queue_pkts : -1.0)
      .add("drop_frac", res.gw_arrivals == 0
                            ? 0.0
                            : static_cast<double>(res.gw_drops) /
                                  static_cast<double>(res.gw_arrivals))
      .add("bytes_per_flow", static_cast<double>(res.arena_bytes) /
                                 static_cast<double>(clients));
  if (fr) {
    r.add("fr_samples", fr->samples().size())  // held at the end of the run
        .add("fr_taken", fr->taken())  // snapshots ever taken
        .add("fr_bytes", fr->bytes_reserved());  // fixed budget at arm()
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const ProbeArgs args =
      parse_probe_args(argc, argv, "fig_meanfield", "BENCH_meanfield.json");

  std::cout << "fig_meanfield: mean-field scaling sweep (base N=60)\n"
            << "claim: c.o.v. of RTT-binned gateway arrivals decays toward "
               "the deterministic limit cycle's floor; mean RED occupancy "
               "tracks the closed-form fixed point\n";

  std::vector<int> grid = {100, 1000, 10000};
  if (!args.smoke) grid.push_back(100000);

  std::vector<ProbeRow> rows;
  add_row(&rows, schedule_pop_row("calib_sched_pop_d64", 1'000'000, 64,
                                  args.repeat));
  // Flight-recorder rows: the huge-N sampler on the same scenarios
  // (sequential engine), each run right after its untraced twin so that
  // scripts/check_parallel.py's wall comparison (<= 5% over the twin, the
  // sample budget fixed) compares back-to-back runs on the same host
  // speed: observability at mean-field scale must stay effectively free.
  std::vector<double> covs;  // the sequential sweep's, in grid order
  for (const int n : grid) {
    covs.push_back(0.0);
    add_row(&rows, run_meanfield(n, 1, false, &covs.back()));
    if (n >= 10000) add_row(&rows, run_meanfield(n, 1, true));
  }

  // In-run sanity. The mean-field limit is a deterministic RED/TCP
  // limit cycle, so the c.o.v. falls toward the cycle's amplitude
  // (~0.10) and then flattens: require real decay overall and no
  // resurgence at any step, not strict monotonicity into the floor.
  bool cov_decays = covs.back() <= 0.6 * covs.front();
  for (std::size_t i = 1; i < covs.size(); ++i) {
    if (covs[i] > 1.10 * covs[i - 1]) cov_decays = false;
  }
  std::cout << (cov_decays ? "PASS" : "DEVIATION")
            << ": c.o.v. decays to the mean-field floor across the N grid\n";

  // Parallel-engine rows: the same scenarios on 2 and 4 LPs for every
  // N >= 10000 (so smoke and full runs share row names).
  // scripts/check_parallel.py gates these (events exactly equal to the
  // matching sequential row, wall within budget, speedup floors when the
  // hardware has the cores).
  for (const int n : grid) {
    if (n < 10000) continue;
    for (const int lp : {2, 4}) add_row(&rows, run_meanfield(n, lp));
  }

  write_probe_json(
      args, "fig_meanfield", rows,
      {{"budget_bytes_per_flow", std::to_string(kBudgetPerFlowBytes)},
       {"hw_threads", std::to_string(std::thread::hardware_concurrency())}});
  return 0;
}
