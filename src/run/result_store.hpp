// On-disk, content-addressed cache of ExperimentResults, safely shareable
// across processes (the campaign farm's coordination point).
//
// Layout: 16 JSON-lines segments per store directory, `shard-<x>.jsonl`
// with x = the first hex digit of the key (key.hi >> 60), each line
// `{"key":"<32 hex>","schema":N,"result":{...}}`. Segments are
// APPEND-ONLY under an advisory exclusive flock;
// loading takes a shared flock and tolerates a torn final line (the next
// writer heals it by prefixing a newline), so a crashed writer can never
// poison the cache. Corrupt or wrong-schema lines are counted and
// skipped; bumping kResultSchemaVersion invalidates everything at once.
// refresh() absorbs lines appended by other processes since open, by
// per-segment byte offset — cheap enough to poll.
//
// Claims: a worker that wants to simulate key K calls try_claim(K):
//   kDone     — K is already in the store (after a targeted refresh).
//   kAcquired — this worker owns K: simulate, then publish() (atomic
//               append + claim release) or abandon() on failure.
//   kBusy     — another live worker owns K; poll refresh() until its
//               result appears (or its claim goes stale).
// A claim is `claims/<32 hex>.claim`, created with O_EXCL and holding the
// owner's pid. Claims whose pid is dead — or which stayed empty longer
// than kEmptyClaimTtl — are stolen under `claims/.steal.lock`, which is
// what makes resume after a killed worker pick up exactly the unfinished
// points.
//
// The stored JSON holds the field list's scalars (for_each_result_field,
// in list order), the delay moments, the cwnd traces and the metrics
// snapshot. It leaves out the embedded Scenario — the key already binds
// the result to its scenario, and the campaign layer re-attaches the
// Scenario it planned with — and the machine-dependent wall clock and
// per-LP profile.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "src/core/experiment.hpp"
#include "src/run/scenario_key.hpp"

namespace burst {

/// Serializes the stored part of @p r (see above) as one JSON object.
/// Doubles are printed with round-trip precision (obs_format) so a cached
/// result is bit-identical to the fresh one.
std::string result_to_json(const ExperimentResult& r);

/// Parses result_to_json output. Returns false on malformed/truncated
/// input; *out is untouched on failure.
bool result_from_json(const std::string& json, ExperimentResult* out);

/// Outcome of ResultStore::try_claim.
enum class ClaimStatus { kAcquired, kBusy, kDone };

class ResultStore {
 public:
  static constexpr int kNumSegments = 16;
  /// An empty claim file (writer died between create and write) older
  /// than this many seconds counts as stale and may be stolen.
  static constexpr double kEmptyClaimTtl = 30.0;

  /// Opens (creating the directory if needed) and loads every valid
  /// entry for the current schema version.
  explicit ResultStore(std::string dir);
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  std::optional<ExperimentResult> get(const ScenarioKey& key) const;
  bool contains(const ScenarioKey& key) const;

  /// Inserts/overwrites in memory; call flush() to persist.
  void put(const ScenarioKey& key, const ExperimentResult& result);

  /// Appends every not-yet-persisted entry to its segment (exclusive
  /// flock, newline-heal, single write per segment). Absorbs concurrent
  /// appends it finds along the way. Returns false on I/O failure.
  /// No-op when nothing changed since the last flush.
  bool flush();

  /// Absorbs entries appended by other store handles (same or different
  /// process) since open or the last refresh.
  void refresh();

  /// Claim protocol — see the header comment.
  ClaimStatus try_claim(const ScenarioKey& key);
  /// put() + durable append of @p key's entry + claim release.
  void publish(const ScenarioKey& key, const ExperimentResult& result);
  /// Releases an acquired claim without publishing (simulation failed).
  void abandon(const ScenarioKey& key);

  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return entries_.size();
  }
  /// Lines skipped at load time (corrupt, truncated, or wrong schema).
  std::size_t skipped_entries() const {
    std::lock_guard<std::mutex> lk(mu_);
    return skipped_;
  }
  const std::string& dir() const { return dir_; }

  static int segment_of(const ScenarioKey& key) {
    return static_cast<int>(key.hi >> 60);
  }
  /// `dir/shard-<x>.jsonl` for @p key's segment.
  std::string segment_path(const ScenarioKey& key) const;
  std::string segment_path(int segment) const;
  std::string claim_path(const ScenarioKey& key) const;

 private:
  /// Reads segment @p seg from its saved offset under a shared flock.
  /// @p keep_dirty: don't let absorbed lines overwrite unflushed puts.
  void refresh_segment(int seg, bool keep_dirty);
  bool flush_locked();
  bool steal_stale_claim(const std::string& path);

  /// Guards all in-memory state: campaign worker threads share one store
  /// handle (cross-process safety comes from flock + O_EXCL claims,
  /// cross-thread safety from this).
  mutable std::mutex mu_;
  std::string dir_;
  // Values stay serialized until asked for: cheap to load, and a flush
  // is a straight dump of the dirty set.
  std::unordered_map<ScenarioKey, std::string, ScenarioKeyHash> entries_;
  std::unordered_set<ScenarioKey, ScenarioKeyHash> dirty_keys_;
  std::array<std::uint64_t, kNumSegments> seg_offset_{};
  std::size_t skipped_ = 0;
};

}  // namespace burst
