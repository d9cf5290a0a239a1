// Runs one batch of independent simulation tasks on threads started for
// the call.
//
// Work distribution is an atomic counter over the task index space: every
// idle thread takes the next unstarted index, so load imbalance is bounded
// by one task. A campaign runs one batch, so the threads live exactly as
// long as the call.
//
// Determinism: tasks are identified by index, never by thread, so any
// per-task randomness must be derived from the index (see derive_seed in
// scenario_key.hpp). Results are written by index too — thread count and
// scheduling cannot change the output.
#pragma once

#include <cstddef>
#include <functional>

namespace burst {

struct ExecutorProgress {
  std::size_t done = 0;
  std::size_t total = 0;
  double elapsed_s = 0.0;
  /// Linear-extrapolation estimate of remaining wall time; 0 until the
  /// first task finishes.
  double eta_s = 0.0;
  /// Completed tasks per wall second so far; 0 until time has elapsed.
  double tasks_per_sec = 0.0;
};

/// Runs task(0..num_tasks-1) on min(threads, num_tasks) threads started
/// for this call (threads 0 counts as 1) and returns once they have all
/// joined. @p progress, if set, is invoked after every task completion,
/// serialized (never concurrently with itself). Every task runs even if
/// one throws; the first exception is rethrown after the threads join.
void run_tasks(std::size_t num_tasks, unsigned threads,
               const std::function<void(std::size_t)>& task,
               const std::function<void(const ExecutorProgress&)>& progress = {});

}  // namespace burst
