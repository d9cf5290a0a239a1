// Shared plumbing for the figure-reproduction harnesses. Every bench binary
// runs with no arguments, prints the paper's claim, the measured rows, and
// a PASS/DEVIATION verdict where the claim is checkable.
//
// Environment overrides:
//   BURST_DURATION   simulation seconds per run (default: the paper's 20 s)
//   BURST_SEED       base RNG seed (default 1)
//   BURST_CACHE_DIR  result-cache directory: figure sweeps are served from /
//                    recorded into the campaign result store (warm reruns
//                    simulate nothing)
//   BURST_NO_CACHE   set to ignore the cache even if BURST_CACHE_DIR is set
#pragma once

#include <string>
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

/// Client counts used for the Fig 2 sweep (the paper plots ~5..60).
std::vector<int> fig2_clients();

/// Client counts for Figs 3, 4 and 13 (the paper starts these at 30).
std::vector<int> fig34_clients();

/// Runs one named figure sweep through the campaign runner: cache-backed
/// when BURST_CACHE_DIR is set (and shared across figure binaries, since
/// seeds key on config name and client count rather than loop indices).
std::vector<SweepSeries> figure_sweep(const std::string& name,
                                      const Scenario& base,
                                      const std::vector<int>& client_counts,
                                      const std::vector<SweepConfig>& configs);

/// If BURST_CSV_DIR is set, writes the sweep as <dir>/<name>.csv so
/// scripts/plot_figures.py can render the figure.
void maybe_write_sweep_csv(const std::string& name,
                           const std::vector<SweepSeries>& series,
                           double (*metric)(const ExperimentResult&));

/// Runs the cwnd-trace experiment behind Figs 5-12 and prints the result.
/// Returns the experiment result for extra checks.
ExperimentResult run_cwnd_figure(const std::string& figure,
                                 const std::string& claim, Transport transport,
                                 int num_clients);

}  // namespace burst::bench
