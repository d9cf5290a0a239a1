// Runs one scenario end to end and gathers every metric the paper reports:
// c.o.v. of per-RTT gateway arrivals (Fig 2), delivered packets (Fig 3),
// loss percentage (Fig 4) and timeout / duplicate-ACK counters (Fig 13),
// plus fairness (Sec 3.2.2). The congestion-window traces of Figs 5-12
// are read from the event trace (ExperimentOptions::trace,
// TraceSink::cwnd_series).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/core/scenario.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/parallel/lp_stats.hpp"
#include "src/stats/running_stats.hpp"

namespace burst {

class FlightRecorder;
struct TopoSpec;

struct ExperimentOptions {
  /// Structured event-trace sink. When non-null, every tap point in the
  /// topology (queue, measured link, TCP sinks, sources, transport
  /// transitions) emits into it, and the measured queue's drop clusters
  /// are added after the run (TopoNet::finalize_trace); the simulation
  /// itself is bit-identical either way (no extra events, no RNG draws) —
  /// the result-identity pins and the differential test enforce this.
  TraceSink* trace = nullptr;
  /// Logical-process count for the conservative parallel engine
  /// (DESIGN.md §13). 1 (the default) runs today's sequential engine,
  /// bit-identical to every historical result. Values > 1 shard the
  /// topology across threads — results are then deterministic
  /// per-shard-count but may order exact same-instant ties differently
  /// than lp=1, so the scenario key is salted with this field whenever it
  /// exceeds 1 (the result cache must never mix shard counts). Requests
  /// the topology cannot honor (no cut, zero lookahead) clamp back to 1.
  /// Tracing shards fine: event traces go to per-LP rings merged
  /// deterministically at export (DESIGN.md §14), and a flow's
  /// cwnd_change records all come from the LP that runs its sender.
  int lp_shards = 1;
  /// Optional fixed-budget streaming sampler for huge-N runs (DESIGN.md
  /// §14.3). When non-null it is wired to the measured queue, the TCP
  /// senders (sequential engine only) and the driving Simulator, and armed
  /// for the scenario duration. Unlike `trace` it schedules its own
  /// periodic sampling events, so a flight-recorded run is NOT
  /// event-count-identical to a bare one (wall overhead is gated ≤5%).
  FlightRecorder* flight = nullptr;
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

  // Component metrics registered at end of run (schema v3). Deterministic:
  // identical runs — traced or not — produce equal snapshots.
  MetricsSnapshot metrics;

  /// Sanity: must be zero in a correctly wired run.
  std::uint64_t routing_errors = 0;

  // --- Substrate performance counters ----------------------------------
  // sim_events and peak_pending are deterministic (they depend only on the
  // scenario) and are persisted by the result store; the wall-clock time
  // is machine-dependent and is NOT persisted — a cache hit reports 0.
  std::uint64_t sim_events = 0;    // events executed by the scheduler
  std::uint64_t peak_pending = 0;  // high-water mark of the event heap
  double sim_wall_s = 0.0;         // wall-clock seconds inside sim.run()
  /// Bytes the TCP agents held at the end of the run
  /// (TopoNet::arena_bytes_reserved), for the huge-N memory budget. Not
  /// persisted: a cache hit reports 0.
  std::uint64_t arena_bytes = 0;

  /// Shard count the run actually used (1 when the partitioner declined
  /// the request — see ExperimentOptions::lp_shards). For parallel runs sim_events /
  /// peak_pending / the sched.* metrics aggregate across LPs: events and
  /// scheduled counts sum (so they stay comparable with lp=1), while
  /// peak_pending takes the max over the per-LP heaps.
  int lp_shards = 1;
  /// The runtime's per-LP profile, one entry per LP, when lp_shards > 1
  /// (empty otherwise). Not persisted.
  std::vector<LpStats> lp_stats;
  /// The runtime's per-window timeline, one list per LP, filled only for
  /// traced parallel runs (the window log is opt-in); feeds the
  /// `.runtime.perfetto` export with one thread track per LP. Not
  /// persisted.
  std::vector<std::vector<LpWindowSample>> lp_windows;
};

// --- The field list ----------------------------------------------------
// Every scalar of ExperimentResult the result store persists, with its
// store key (which is also its `.camp` metric name), burstsim's table
// label and the decimals burstsim prints a real with.
// result_to_json/result_from_json write and read the scalars in this
// order, campaign_metric resolves `.camp` `metric` names against it and
// burstsim prints one row per entry: adding a result scalar means adding
// one entry to for_each_result_field.

/// One entry of the field list.
struct ResultField {
  const char* name;   // store key and `.camp` metric name
  const char* label;  // burstsim's table row
  int digits = 0;     // decimals burstsim prints a double with
};

/// Calls @p visit(field, member) for every persisted scalar, in store
/// order. @p r is an ExperimentResult or a const one; the member is a
/// double or a std::uint64_t, and @p visit takes the field as a
/// `const ResultField&`.
template <typename R, typename Visit>
void for_each_result_field(R& r, Visit&& visit) {
  visit({"cov", "c.o.v. of gateway arrivals per RTT", 4}, r.cov);
  visit({"poisson_cov", "analytic Poisson c.o.v.", 4}, r.poisson_cov);
  visit({"mean_per_bin", "gateway arrivals per RTT bin", 2}, r.mean_per_bin);
  visit({"app_generated", "application packets generated"}, r.app_generated);
  visit({"delivered", "packets delivered in order"}, r.delivered);
  visit({"gw_arrivals", "gateway arrivals"}, r.gw_arrivals);
  visit({"gw_drops", "gateway drops"}, r.gw_drops);
  visit({"loss_pct", "packet loss (%)", 2}, r.loss_pct);
  visit({"timeouts", "timeouts"}, r.timeouts);
  visit({"fast_retransmits", "fast retransmits"}, r.fast_retransmits);
  visit({"dupacks", "duplicate ACKs received"}, r.dupacks);
  visit({"retransmits", "retransmissions"}, r.retransmits);
  visit({"data_pkts_sent", "data packets sent"}, r.data_pkts_sent);
  visit({"timeout_dupack_ratio", "timeouts / duplicate ACKs", 4},
        r.timeout_dupack_ratio);
  visit({"fairness", "Jain fairness", 4}, r.fairness);
  visit({"routing_errors", "routing errors"}, r.routing_errors);
  visit({"sim_events", "scheduler events"}, r.sim_events);
  visit({"peak_pending", "peak pending events"}, r.peak_pending);
}

/// Reads one scalar of a result: a `.camp` metric or a figure's CSV
/// column (see campaign_metric).
using ResultMetric = std::function<double(const ExperimentResult&)>;

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
