// Runs one scenario end to end and gathers every metric the paper reports:
// c.o.v. of per-RTT gateway arrivals (Fig 2), delivered packets (Fig 3),
// loss percentage (Fig 4), congestion-window traces (Figs 5-12) and
// timeout / duplicate-ACK counters (Fig 13), plus fairness (Sec 3.2.2).
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/scenario.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/trace.hpp"
#include "src/stats/running_stats.hpp"

namespace burst {

class FlightRecorder;
struct TopoSpec;

struct ExperimentOptions {
  /// Client indices whose congestion windows should be traced. Each
  /// traced sender records every window write; nothing is scheduled, so a
  /// traced run executes the untraced run's events and shards like one.
  std::vector<int> trace_clients;
  /// Period of the grid added to each cwnd trace after the run (0 = only
  /// the change points). Grid point t_k = t_{k-1} + period, t_1 = period,
  /// up to the duration, holds the last value at or before t_k. The
  /// figures use 0.1 s like the paper's x-axis.
  Time cwnd_sample_period = 0.0;
  /// Structured event-trace sink. When non-null, every tap point in the
  /// topology (queue, measured link, TCP sinks, sources, transport
  /// transitions, drop clustering) emits into it; the simulation itself is
  /// bit-identical either way (no extra events, no RNG draws) — the
  /// result-identity pins and the differential test enforce this.
  TraceSink* trace = nullptr;
  /// Logical-process count for the conservative parallel engine
  /// (DESIGN.md §13). 1 (the default) runs today's sequential engine,
  /// bit-identical to every historical result. Values > 1 shard the
  /// topology across threads — results are then deterministic
  /// per-shard-count but may order exact same-instant ties differently
  /// than lp=1, so the scenario key is salted with this field whenever it
  /// exceeds 1 (the result cache must never mix shard counts). Requests
  /// the topology cannot honor (no cut, zero lookahead) clamp back to 1.
  /// Tracing shards fine: cwnd traces are written by each sender's own
  /// LP, and event traces go to per-LP rings merged deterministically at
  /// export (DESIGN.md §14).
  int lp_shards = 1;
  /// Optional fixed-budget streaming sampler for huge-N runs (DESIGN.md
  /// §14.3). When non-null it is wired to the measured queue, the flow
  /// arena (sequential engine only) and the driving Simulator, and armed
  /// for the scenario duration. Unlike `trace` it schedules its own
  /// periodic sampling events, so a flight-recorded run is NOT
  /// event-count-identical to a bare one (wall overhead is gated ≤5%).
  FlightRecorder* flight = nullptr;
};

/// Per-logical-process accounting from a parallel run (DESIGN.md §13's
/// profile table). Machine-dependent (wall-clock split) and therefore
/// never persisted by the result store.
struct LpPhase {
  int lp = 0;
  std::uint64_t events = 0;    // events this LP executed
  std::uint64_t windows = 0;   // conservative windows it participated in
  std::uint64_t msgs_in = 0;   // cross-LP packets received
  std::uint64_t msgs_out = 0;  // cross-LP packets sent
  /// Inbound merge high-water mark (most messages staged in one window).
  std::uint64_t merge_high_water = 0;
  /// Posts that spilled past a channel ring, and the outbound ring
  /// high-water mark (timing-dependent, profile display only).
  std::uint64_t chan_overflows = 0;
  std::uint64_t chan_high_water = 0;
  /// Mean safe-horizon advance per busy window (simulated seconds).
  Time horizon_advance_mean = 0.0;
  double run_s = 0.0;          // wall seconds processing events / merging
  double wait_s = 0.0;         // wall seconds blocked at window barriers
};

/// One conservative window as one LP saw it (flattened copy of the
/// runtime's LpWindowSample, kept core-local so this header does not pull
/// in the thread runtime). Only filled for traced parallel runs; wall
/// offsets are machine-dependent and never persisted.
struct LpWindowPhase {
  int lp = 0;
  Time gmin = 0.0;            // the window's global lower bound
  double t0_s = 0.0;          // wall offset of the window start
  double pub_wait_s = 0.0;    // blocked at the publish barrier
  double run_s = 0.0;         // executing events below the safe horizon
  double flush_wait_s = 0.0;  // blocked at the flush barrier
  double merge_s = 0.0;       // draining + inserting inbound messages
  std::uint64_t events = 0;   // cumulative events after this window
  std::uint32_t staged = 0;   // messages merged in this window
};

struct ExperimentResult {
  Scenario scenario;

  // Burstiness (Fig 2).
  double cov = 0.0;           // measured c.o.v. of per-RTT gateway arrivals
  double poisson_cov = 0.0;   // analytic c.o.v. of the aggregate Poisson
  double mean_per_bin = 0.0;  // mean arrivals per RTT bin

  // Volume (Figs 3, 4).
  std::uint64_t app_generated = 0;
  std::uint64_t delivered = 0;      // unique in-order packets at the server
  std::uint64_t gw_arrivals = 0;    // offered to the bottleneck queue
  std::uint64_t gw_drops = 0;
  double loss_pct = 0.0;            // 100 * drops / arrivals

  // Loss-recovery behavior (Fig 13).
  std::uint64_t timeouts = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t dupacks = 0;        // duplicate ACKs received by senders
  std::uint64_t retransmits = 0;
  std::uint64_t data_pkts_sent = 0;
  /// The paper's Fig 13 metric: timeouts / dupacks. Degenerate-denominator
  /// convention: 0 when the run saw neither timeouts nor dupacks; when
  /// timeouts > 0 but dupacks == 0 (dup-ACK starvation — windows too small
  /// or losses too clustered to ever produce duplicates) the denominator
  /// clamps to 1, so the ratio degrades to the raw timeout count rather
  /// than reporting the same 0 as a loss-free run.
  double timeout_dupack_ratio = 0.0;

  // Sharing (Sec 3.2.2).
  double fairness = 1.0;            // Jain index over per-flow delivered

  // One-way data-path delay across all flows (propagation + queueing).
  RunningStats delay;

  // Congestion-window traces for the requested clients (Figs 5-12).
  std::vector<TraceSeries> cwnd_traces;

  // Component metrics registered at end of run (schema v3). Deterministic:
  // identical runs — traced or not — produce equal snapshots.
  MetricsSnapshot metrics;

  /// Sanity: must be zero in a correctly wired run.
  std::uint64_t routing_errors = 0;

  // --- Substrate performance counters ----------------------------------
  // sim_events and peak_pending are deterministic (they depend only on the
  // scenario) and are persisted by the result store; the wall-clock pair
  // is machine-dependent and is NOT persisted — a cache hit reports 0.
  std::uint64_t sim_events = 0;    // events executed by the scheduler
  std::uint64_t peak_pending = 0;  // high-water mark of the event heap
  double sim_wall_s = 0.0;         // wall-clock seconds inside sim.run()
  double events_per_sec = 0.0;     // sim_events / sim_wall_s

  /// Shard count the run actually used (1 when the partitioner declined
  /// the request — see ExperimentOptions::lp_shards). For parallel runs sim_events /
  /// peak_pending / the sched.* metrics aggregate across LPs: events and
  /// scheduled counts sum (so they stay comparable with lp=1), while
  /// peak_pending takes the max over the per-LP heaps.
  int lp_shards = 1;
  /// One row per LP when lp_shards > 1 (empty otherwise). Not persisted.
  std::vector<LpPhase> lp_phases;
  /// Per-window runtime timeline, filled only for traced parallel runs
  /// (the runtime's window log is opt-in); feeds the `.runtime.perfetto`
  /// export with one thread track per LP. Not persisted.
  std::vector<LpWindowPhase> lp_windows;
};

/// Builds @p spec (sequentially, or sharded across options.lp_shards
/// LPs when the partitioner can cut it), runs for spec.scenario.duration
/// and collects metrics, with the spec's measured link standing in for
/// the gateway bottleneck. The one run body behind every entry point.
///
/// Naming rule: a spec that is canonically the paper dumbbell
/// (is_canonical_dumbbell) reports under its historical trace-site and
/// metric names (`queue:gateway`, `queue.gateway.*`, `link.bottleneck.*`)
/// at every shard count; any other graph uses `queue:measured`,
/// `queue.measured.*` and `link.measured.*`.
ExperimentResult run_experiment(const TopoSpec& spec,
                                const ExperimentOptions& options = {});

/// The paper dumbbell for @p scenario: run_experiment(make_dumbbell_spec).
ExperimentResult run_experiment(const Scenario& scenario,
                                const ExperimentOptions& options = {});

}  // namespace burst
