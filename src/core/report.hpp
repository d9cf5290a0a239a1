// Plain-text report formatting: aligned tables for the figure harnesses,
// so each bench binary prints rows comparable to the paper's plots.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "src/core/sweep.hpp"
#include "src/sim/trace.hpp"

namespace burst {

class TraceSink;

/// Prints an aligned table; every row must match the header's size.
void print_table(std::ostream& os, const std::vector<std::string>& header,
                 const std::vector<std::vector<std::string>>& rows);

/// Formats a double with fixed precision.
std::string fmt(double v, int precision = 4);

/// Prints one metric (extracted by @p metric) against #clients for every
/// series: the generic Fig 2/3/4/13 layout.
void print_metric_vs_clients(
    std::ostream& os, const std::vector<SweepSeries>& series,
    const std::string& metric_name, const ResultMetric& metric,
    int precision = 4);

/// The cwnd traces of @p clients (0-based flow indices) read from
/// @p sink in one walk (TraceSink::cwnd_series), named
/// "client <index + 1>". nullopt if the ring overwrote records: a series
/// would start late.
std::optional<std::vector<TraceSeries>> client_cwnd_series(
    const TraceSink& sink, const std::vector<int>& clients);

/// Prints a cwnd trace as (t, cwnd) rows resampled on a regular grid, the
/// textual equivalent of the paper's Figs 5-12.
void print_cwnd_series(std::ostream& os,
                       const std::vector<TraceSeries>& traces, Time t_end,
                       Time sample_period, int max_rows = 60);

/// Writes a trace as CSV (t,value per line) for external plotting, each
/// number spelled as the trace exports spell it (obs_format), so a cwnd
/// row equals its cwnd_change record. Returns false if the file cannot
/// be opened or fully written.
bool write_trace_csv(const std::string& path, const TraceSeries& trace);

/// Writes sweep results as CSV: one row per client count, one column per
/// series, for a caller-chosen metric. Used by the figure benches when
/// BURST_CSV_DIR is set, so the paper's plots can be regenerated with any
/// external plotting tool. Returns false if the file cannot be opened or
/// fully written.
bool write_sweep_csv(const std::string& path,
                     const std::vector<SweepSeries>& series,
                     const ResultMetric& metric);

}  // namespace burst
