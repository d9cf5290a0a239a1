// Parallel-runtime timeline export: turns the per-LP window log of a
// traced parallel run into Chrome trace-event JSON with one thread track
// per LP, so barrier stalls are visible on a Perfetto timeline next to
// the packet trace (DESIGN.md §14.2).
//
// Unlike the packet trace (simulated time, bit-deterministic), this file
// plots WALL time per LP — "wait" vs "run" vs "merge" slices — and is
// inherently machine-dependent; it is written as a separate
// `<stem>.runtime.perfetto.json` artifact so the deterministic trace
// files stay byte-comparable.
#pragma once

#include <iosfwd>
#include <vector>

#include "src/sim/parallel/lp_stats.hpp"

namespace burst {

/// Writes slices ("wait"/"run"/"barrier"/"merge") per window on each LP's
/// thread track, plus per-LP counter tracks for the safe-horizon lower
/// bound (gmin, simulated seconds) and the per-window merged-message
/// count, and one summary instant per LP carrying its LpStats totals.
/// @p stats and @p windows hold one entry per LP, in LP order. ts is wall
/// microseconds from ParallelRuntime::run() entry.
bool write_runtime_trace(
    std::ostream& os, const std::vector<LpStats>& stats,
    const std::vector<std::vector<LpWindowSample>>& windows);

}  // namespace burst
