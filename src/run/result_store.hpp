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
// claim() absorbs the lines other handles appended to its key's segment
// since open, by per-segment byte offset.
//
// Claims: a worker that wants key K calls claim(K).
//   false — K is stored (perhaps after waiting for its owner to publish
//           it): read it with get().
//   true  — this worker owns K: simulate, then publish() it, or
//           release() it on failure.
// A claim is an exclusive flock on the empty file `claims/<32 hex>.claim`.
// claim() blocks on it while another worker (thread or process) holds
// it, and the kernel drops the lock when its owner dies, so a killed
// worker's point is free at once. publish() appends the entry first, then
// unlinks and closes the claim file. release(), the destructor and a
// failed append close held claims without unlinking: a claim file goes
// only once its key is stored, so all workers waiting on an unstored key
// wait on one inode.
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

class ResultStore {
 public:
  static constexpr int kNumSegments = 16;

  /// Opens (creating the directory if needed) and loads every valid
  /// entry for the current schema version. A directory that cannot be
  /// created is reported once on stderr; the handle then reads and writes
  /// nothing, and every claim() returns true at once.
  explicit ResultStore(std::string dir);
  /// Closes the claims this handle still holds, without unlinking them.
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  std::optional<ExperimentResult> get(const ScenarioKey& key) const;

  /// Claim protocol — see the header comment. Blocks while another worker
  /// holds @p key, without holding the store's mutex, so this handle's
  /// other threads keep reading and publishing. Returns true without a
  /// lock when the claim file cannot be opened: there is nothing to wait
  /// for.
  bool claim(const ScenarioKey& key);
  /// Appends @p key's entry to its segment in one write under the
  /// segment's exclusive flock, then closes this handle's claim on @p key,
  /// if it holds one, unlinking its file once the entry is written.
  void publish(const ScenarioKey& key, const ExperimentResult& result);
  /// Closes this handle's claim on @p key without publishing; the next
  /// waiter takes the key over.
  void release(const ScenarioKey& key);

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
  void read_segment(int seg);
  /// Appends @p key's line to its segment, healing a torn tail. Returns
  /// false (and says why on stderr) when the line was not written.
  bool append(const ScenarioKey& key, const std::string& payload);
  /// Closes this handle's claim on @p key, if any, unlinking its file
  /// first when @p stored.
  void drop_claim(const ScenarioKey& key, bool stored);

  /// Guards all in-memory state: campaign worker threads share one store
  /// handle (cross-process safety comes from flock, cross-thread safety
  /// from this).
  mutable std::mutex mu_;
  std::string dir_;
  bool has_dir_ = false;  // false: dir_ could not be created
  // Values stay serialized until asked for: cheap to load and to append.
  std::unordered_map<ScenarioKey, std::string, ScenarioKeyHash> entries_;
  // Held claims: key -> the open, exclusively flocked claim file.
  std::unordered_map<ScenarioKey, int, ScenarioKeyHash> claims_;
  std::array<std::uint64_t, kNumSegments> seg_offset_{};
  std::size_t skipped_ = 0;
};

}  // namespace burst
