// Campaigns: batches of keyed topology points that run once per *unique*
// scenario instead of once per figure.
//
// One engine (run_campaign_points) serves both front ends: the figure
// sweeps below (base scenario × configs × client counts, the paper's
// Figs 2/3/4/13) and `.camp` files (src/topo/campaign.hpp). It
// deduplicates points by fingerprint (scenario_key.hpp), looks them up in
// an optional on-disk ResultStore, and simulates only the misses — with
// run_tasks, under the store's claim protocol so worker processes sharing
// a cache split the work. Per-point seeds are derived from values (not
// loop indices), so the cached and uncached paths are bit-identical. The
// figure front end writes a per-sweep CSV plus a manifest.json recording
// seeds, cache hit/miss counts, wall time and the build version.
#pragma once

#include <array>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/core/sweep.hpp"
#include "src/obs/profile.hpp"
#include "src/topo/spec.hpp"

namespace burst {

/// One named sweep: base scenario × configs × client counts, plus the
/// metric its CSV artifact reports.
struct CampaignSweep {
  std::string name;         // artifact stem, e.g. "fig02_cov"
  std::string metric_name;  // human label for the metric column group
  Scenario base;
  std::vector<int> client_counts;
  std::vector<SweepConfig> configs;
  ResultMetric metric;
};

struct CampaignOptions {
  /// Directory holding the ResultStore; empty means no store: nothing is
  /// read or written and no claims coordinate workers (--no-cache).
  std::string cache_dir;
  /// Worker threads; 0 = hardware concurrency.
  unsigned threads = 0;
  /// Where CSVs + manifest.json go; empty disables artifacts.
  std::string artifact_dir;
  /// Progress / summary lines go here when set (e.g. &std::cerr). Each
  /// line is flushed as written so progress is visible on non-TTY
  /// stdout/stderr (pipes, CI logs).
  std::ostream* log = nullptr;
  /// Installs a per-task Profiler around every simulated scenario and
  /// reports per-phase wall shares (dispatch/transport/queue/other) in
  /// CampaignStats and the log summary. Costs two clock reads per
  /// instrumented scope; leave off for benchmark-comparable timings.
  bool profile = false;
  /// Logical processes per simulated scenario (conservative parallel
  /// engine, DESIGN.md §13). 1 = sequential. Values > 1 salt every
  /// scenario key, so parallel campaigns never share cache entries with
  /// sequential ones; combine with --threads=1 to avoid oversubscribing
  /// cores (each miss then runs lp_shards LP threads itself).
  int lp_shards = 1;
};

struct CampaignStats {
  std::size_t planned = 0;     // points planned (sweep × config × count)
  std::size_t unique = 0;      // after dedup by key
  std::size_t cache_hits = 0;  // unique scenarios served from the store
  std::size_t simulated = 0;   // unique scenarios actually run HERE
  std::size_t farmed_out = 0;  // misses another worker simulated for us
  std::size_t store_skipped = 0;  // corrupt/stale store lines at load
  double wall_s = 0.0;

  // Scheduler perf counters aggregated over the *simulated* (cache-miss)
  // scenarios of this run; all zero on a fully cached campaign.
  std::uint64_t sim_events = 0;      // total events executed
  std::uint64_t peak_pending_max = 0;  // largest heap seen in any run
  double sim_wall_s = 0.0;           // summed per-run simulation wall time
  double events_per_sec = 0.0;       // sim_events / sim_wall_s

  /// Per-phase self-time seconds summed over all simulated tasks, indexed
  /// by ProfilePhase. All zero unless CampaignOptions::profile was set.
  std::array<double, kProfilePhases> phase_seconds{};

  /// Per-LP totals (events, messages, horizon advance, run vs
  /// barrier-wait wall seconds) summed over the simulated tasks, with
  /// high-water marks the maximum; one entry per logical process. Empty
  /// unless lp_shards > 1 (cache hits carry no LP data).
  std::vector<LpStats> lp_stats;
};

struct CampaignOutput {
  /// Per-sweep results, in input order: one series per config, one point
  /// per client count.
  std::vector<std::pair<std::string, std::vector<SweepSeries>>> sweeps;
  CampaignStats stats;
};

/// One simulation a campaign plans: the topology to run and the key its
/// result is stored under. Points with equal keys are run once.
struct CampaignPoint {
  TopoSpec spec;
  ScenarioKey key;
};

/// The options every point of a campaign runs with — and must be keyed
/// with (topo_key / scenario_key), so lp>1 results never share entries
/// with sequential ones.
ExperimentOptions campaign_run_options(const CampaignOptions& opts);

/// The campaign engine: dedups @p points by key, serves what it can from
/// the store, simulates the misses with run_tasks (claim-aware when a
/// cache is in use) and fills every @p stats field except wall_s — the
/// point/hit/simulated counts, perf totals, profile and LP totals — while
/// logging progress to opts.log. Returns one result per point, in input
/// order, each carrying its point's Scenario. Blocking.
std::vector<ExperimentResult> run_campaign_points(
    const std::vector<CampaignPoint>& points, const CampaignOptions& opts,
    CampaignStats* stats);

/// Plans @p sweeps as dumbbell points, runs them through
/// run_campaign_points and (optionally) writes the artifacts. Blocking.
CampaignOutput run_campaign(const std::vector<CampaignSweep>& sweeps,
                            const CampaignOptions& opts = {});

/// Looks up a scalar ExperimentResult metric by name: any name of the
/// result field list (for_each_result_field), plus mean_delay and
/// max_delay. The `.camp` `metric` statement and the paper figure set
/// share this table. Returns an empty function for unknown names.
ResultMetric campaign_metric(const std::string& name);

/// The full paper figure set (Figs 2, 3, 4, 13) over @p base. Figures 3,
/// 4 and 13 share every simulation (same scenarios, different metric
/// column), so the campaign runs ~half the naive task count.
std::vector<CampaignSweep> paper_figure_campaign(const Scenario& base);

/// The seed a figure campaign assigns to one point.
std::uint64_t campaign_point_seed(const Scenario& base,
                                  const std::string& config_name,
                                  int num_clients);

}  // namespace burst
