// What the conservative parallel runtime records per logical process:
// the per-LP profile (LpStats) and the opt-in per-window timeline
// (LpWindowSample). Kept apart from runtime.hpp so that results, the
// campaign layer and the exports can carry them without pulling in the
// thread runtime. Wall-clock fields are machine-dependent and never
// persisted by the result store.
#pragma once

#include <cstdint>

#include "src/sim/time.hpp"

namespace burst {

/// Per-LP execution profile, for the --profile phase table: a large
/// wait_s/run_s ratio on one LP means its neighbours starve it of
/// lookahead (or it simply owns too little of the event load).
struct LpStats {
  std::uint64_t events = 0;        // events this LP executed
  std::uint64_t windows = 0;       // synchronization windows
  std::uint64_t msgs_in = 0;       // cross-LP packets merged in
  std::uint64_t msgs_out = 0;      // cross-LP packets its consumers took
  std::uint64_t peak_pending = 0;  // local scheduler high-water mark
  std::uint64_t scheduled = 0;     // local events ever scheduled
  /// Most messages staged in one merge phase (inbound high-water mark).
  /// Deterministic: the window edges and message counts are pure
  /// functions of event timestamps.
  std::uint64_t merge_high_water = 0;
  /// Always 0: a cross-LP handoff goes into an unbounded outbox, so
  /// there is no lane to overflow. Kept because perfbench/adapter.cpp
  /// reports it as `sim.lp_chan_overflows`.
  std::uint64_t chan_overflows = 0;
  /// Sum of gmin increments over busy windows: horizon_advance / windows
  /// is the mean safe-horizon advance per window (deterministic).
  Time horizon_advance = 0.0;
  double run_s = 0.0;              // wall seconds processing events
  double wait_s = 0.0;             // wall seconds blocked at barriers
};

/// Mean safe-horizon advance per window (simulated seconds); 0 before
/// the first window.
inline Time horizon_advance_mean(const LpStats& s) {
  return s.windows > 0 ? s.horizon_advance / static_cast<double>(s.windows)
                       : 0.0;
}

/// One synchronization window as one LP saw it, for the runtime timeline
/// export (--trace-out writes these as a Perfetto track per LP). Wall
/// offsets are relative to ParallelRuntime::run() entry.
struct LpWindowSample {
  Time gmin = 0.0;          // the window's global lower bound
  double t0_s = 0.0;        // wall offset when the publish wait began
  double pub_wait_s = 0.0;  // blocked at the publish barrier
  double run_s = 0.0;       // executing events below the safe horizon
  double flush_wait_s = 0.0;  // blocked at the flush barrier
  double merge_s = 0.0;       // draining + inserting inbound messages
  std::uint64_t events = 0;   // cumulative events after this window
  std::uint32_t staged = 0;   // messages merged in this window
};

}  // namespace burst
