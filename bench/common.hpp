// Shared plumbing for the bench binaries.
//
// Figure-reproduction harnesses run with no arguments, print the paper's
// claim, the measured rows, and a PASS/DEVIATION verdict where the claim
// is checkable. Environment overrides:
//   BURST_DURATION   simulation seconds per run (default: the paper's 20 s)
//   BURST_SEED       base RNG seed (default 1)
//   BURST_CACHE_DIR  result-cache directory: figure sweeps are served from /
//                    recorded into the campaign result store (warm reruns
//                    simulate nothing)
//   BURST_NO_CACHE   set to ignore the cache even if BURST_CACHE_DIR is set
//   BURST_CSV_DIR    also write each figure sweep as <dir>/<name>.csv
//
// Perf probes (sched_events, packet_path, fig_meanfield) time
// deterministic workloads, print one progress line per row and write the
// rows to a JSON file that a scripts/check_*.py gate compares against
// bench/baselines/ (scripts/benchgate.py holds what the gates share).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/experiment.hpp"
#include "src/core/report.hpp"
#include "src/core/scenario.hpp"
#include "src/core/sweep.hpp"
#include "src/stats/trace_analysis.hpp"

namespace burst::bench {

/// Paper-default scenario with BURST_DURATION / BURST_SEED applied as
/// `set` fields; a malformed value exits 2.
Scenario paper_base();

/// Prints the standard bench banner.
void banner(const std::string& figure, const std::string& paper_claim);

/// Prints a one-line verdict.
void verdict(bool ok, const std::string& what);

/// Runs the sweep named @p name (fig02_cov, fig03_throughput, fig04_loss
/// or fig13_timeout_dupack) of paper_figure_campaign(@p base) through the
/// campaign runner — cache-backed when BURST_CACHE_DIR is set, and shared
/// with burstcamp and the other figure binaries, since seeds key on
/// config name and client count rather than loop indices. If
/// BURST_CSV_DIR is set, also writes <dir>/<name>.csv with the sweep's
/// metric so scripts/plot_figures.py can render the figure.
std::vector<SweepSeries> figure_sweep(const std::string& name,
                                      const Scenario& base);

/// A run with an event trace and the cwnd traces read from it.
struct TracedRun {
  ExperimentResult result;
  std::vector<TraceSeries> cwnd;  // one per requested client, in order
};

/// client_cwnd_series(@p sink, @p clients): the cwnd traces of
/// @p clients (0-based), named "client <i+1>". Exits 1 if the trace ring
/// overwrote records: a series would then start late.
std::vector<TraceSeries> cwnd_series_or_exit(const TraceSink& sink,
                                             const std::vector<int>& clients);

/// Runs @p sc with an event trace and reads the cwnd traces of
/// @p clients from it (cwnd_series_or_exit).
TracedRun run_traced(const Scenario& sc, const std::vector<int>& clients);

/// Clients 0 .. @p n - 1.
std::vector<int> all_clients(int n);

/// Runs the cwnd-trace experiment behind Figs 5-12 and prints the result:
/// the paper's three spread-out clients 1, N/2+1 and N, traced. Returns
/// the run for extra checks.
TracedRun run_cwnd_figure(const std::string& figure, const std::string& claim,
                          Transport transport, int num_clients);

// --- Perf probes -----------------------------------------------------------

/// Monotonic wall clock, seconds.
double now_s();

/// Cheap deterministic jitter (splitmix64), independent of src/sim/random
/// so a probe exercises the code under test, not the RNG. Inline: timed
/// loops call it per operation.
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

/// Calls @p rep @p repeat times and returns the smallest value it
/// returned. Each call sets up its own workload, times only the region
/// under test with now_s() and returns that region's seconds, so set-up
/// and tear-down stay outside the measurement.
template <typename Rep>
double best_of(int repeat, Rep&& rep) {
  double best = 1e99;
  for (int i = 0; i < repeat; ++i) best = std::min(best, rep());
  return best;
}

/// One probe row: @c ops operations (scheduler ops, packet hops or
/// simulator events) in @c wall_s seconds, plus row-specific fields.
struct ProbeRow {
  std::string name;
  std::uint64_t ops = 0;
  double wall_s = 0.0;
  /// (key, rendered JSON value), written in this order after the
  /// derived ns_per_op and ops_per_sec.
  std::vector<std::pair<std::string, std::string>> extra;

  ProbeRow& add(const std::string& key, double value);
  ProbeRow& add(const std::string& key, std::uint64_t value);
  /// Appends an already-rendered JSON value (e.g. an object).
  ProbeRow& add_json(const std::string& key, std::string json);

  double ns_per_op() const;
  double ops_per_sec() const;
};

/// Renders @p v as a JSON number with 10 significant digits.
std::string json_number(double v);

/// A probe's command line.
struct ProbeArgs {
  bool smoke = false;  // --smoke: CI-sized workloads
  int repeat = 3;      // --repeat=N: best-of-N timing, N >= 1
  std::string out;     // --out=PATH: the JSON file
};

/// Parses @p argv for probe @p probe, whose JSON goes to @p default_out
/// unless --out is given. Any other argument, or a --repeat that is not
/// an integer >= 1, prints the usage line and exits 2.
ProbeArgs parse_probe_args(int argc, char** argv, const std::string& probe,
                           const std::string& default_out);

/// Prints @p row's progress line and appends it to @p rows.
void add_row(std::vector<ProbeRow>* rows, ProbeRow row);

/// Writes @p rows to args.out as {"bench", "mode", "schema", @p header
/// fields (rendered JSON values), "results"}; exits 1 if the file cannot
/// be written.
void write_probe_json(
    const ProbeArgs& args, const std::string& bench,
    const std::vector<ProbeRow>& rows,
    const std::vector<std::pair<std::string, std::string>>& header = {});

/// The simulator's hot loop in isolation: pop the earliest event and
/// schedule a successor, with @p depth events pending. sched_events
/// reports it at two depths; at depth 64 it is also the calibration row
/// (calib_sched_pop_d64) of packet_path and fig_meanfield: link, timer
/// and transport changes never touch it, so a row's ratio to it cancels
/// the machine.
ProbeRow schedule_pop_row(std::string name, std::uint64_t ops,
                          std::size_t depth, int repeat);

}  // namespace burst::bench
