// Hierarchical timing wheel (Varghese & Lauck): the Scheduler's second
// backend, holding the soft-deadline timer class — the RTO and
// delayed-ACK timers that dominate *pending* events at large N but are a
// vanishing fraction of *executed* events.
//
// Why a second structure at all: the indexed 4-ary heap pays O(log n) per
// insert/cancel where n is the total pending count. A mean-field run
// (10^5–10^6 flows) keeps one RTO timer per flow permanently armed, so n
// is flow-count-sized even though the near-term event horizon — the
// packets and timers actually about to fire — stays small. The wheel
// stores the far-future majority in O(1) buckets and feeds the heap only
// the events whose turn is near, so heap depth tracks the horizon, not
// the flow count (DESIGN.md §11; crossover measured in EXPERIMENTS.md).
//
// Structure: kLevels levels of 64 slots each; a level-i slot spans
// 64^i base ticks (tick = floor(at / granularity)). An entry lands on the
// lowest level whose 64-slot window, anchored at the cursor, reaches its
// tick; entries beyond the top level wait in an overflow ("far") list.
// One occupancy bitmap per level makes "next non-empty bucket" a ctz, so
// advancing across long empty gaps never walks slots one by one.
//
// Ordering contract (what makes the two-tier scheduler bit-identical):
// the wheel never fires anything itself. pop_earliest() always surrenders
// the bucket with the smallest base tick — cascading coarse buckets down
// level by level — until a level-0 bucket (a single tick) is due, and
// hands its entries, full (at, tie_time, seq) keys attached, to the
// caller to merge into the heap. Because tick = floor(at/granularity) is
// monotone in `at`, an entry still in the wheel can never sort before one
// the wheel has already surrendered; exact (at, tie_time, seq) order —
// including cross-structure ties — is restored by the heap. min_at_bound()
// gives the caller a conservative lower bound on every resident's `at`,
// so the heap can keep popping without touching the wheel until a wheel
// entry could actually be next.
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/time.hpp"

namespace burst {

class TimingWheel {
 public:
  /// Sentinel node index meaning "none".
  static constexpr std::uint32_t kNil = 0xffffffffu;

  static constexpr int kLevels = 5;
  static constexpr std::uint32_t kSlotsPerLevel = 64;

  /// A resident event: the scheduler's full sort key plus the owning
  /// callback slot, carried verbatim so the heap can merge flushed
  /// entries into exact global order.
  struct Entry {
    Time at;
    Time tie_time;
    std::uint64_t seq;
    std::uint32_t sched_slot;
  };

  /// @p granularity is the level-0 tick width in seconds. The default
  /// (256 µs) keeps ms-scale delayed-ACK deadlines multiple ticks out
  /// while spanning ~4.5 simulated months before the far list engages
  /// (64^5 ticks).
  explicit TimingWheel(Time granularity = 256e-6);

  /// True if @p at is far enough out to bucket (strictly after the
  /// cursor tick). The caller routes non-accepted events to the heap —
  /// they are due within the current tick, where bucketing buys nothing.
  bool accepts(Time at) const { return tick_of(at) > cursor_; }

  /// Inserts an entry (precondition: accepts(entry.at)). Returns a node
  /// handle for remove(). O(1).
  std::uint32_t insert(const Entry& entry);

  /// Unlinks and frees a resident node (true cancel). O(1).
  void remove(std::uint32_t node);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Conservative lower bound on the `at` of every resident entry, or
  /// kTimeNever when empty. May be stale-low after removals (a removed
  /// minimum is not rediscovered), which can only make the caller flush
  /// a bucket early — never pop the heap past a resident entry.
  Time min_at_bound() const;

  /// Appends the entries of the earliest-tick bucket to @p out,
  /// cascading coarser buckets down levels as needed, and advances the
  /// cursor to that tick. Precondition: !empty(); postcondition: at
  /// least one entry appended. Amortized O(1) per entry over its
  /// lifetime (each node cascades at most kLevels times).
  void pop_earliest(std::vector<Entry>& out);

  /// Total entries ever cascaded one level down (diagnostics).
  std::uint64_t cascades() const { return cascades_; }

 private:
  struct Node {
    Entry entry;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::uint32_t bucket = 0;  // level * kSlotsPerLevel + slot, or kFarBucket
  };
  static constexpr std::uint32_t kFarBucket = 0xffffffffu;
  /// Ticks at or above this are clamped far-future (guards the
  /// double->uint64 cast against kTimeNever/overflow).
  static constexpr double kMaxTick = 9.0e18;

  std::uint64_t tick_of(Time at) const {
    const double t = at * inv_granularity_;
    if (!(t < kMaxTick)) return ~std::uint64_t{0};
    return static_cast<std::uint64_t>(t);
  }

  /// Level whose cursor-anchored window holds @p tick, or kLevels if
  /// only the far list can (a level-i slot index is tick >> 6i; the
  /// window reaches 64 slot indices from the cursor's).
  int level_for(std::uint64_t tick) const;

  /// Links @p node into the bucket for @p tick at @p level (or the far
  /// list for level == kLevels).
  void link(std::uint32_t node, std::uint64_t tick, int level);
  void unlink(std::uint32_t node);

  /// Moves every far-list node back through link(); called when all
  /// levels are empty, after advancing the cursor to the far minimum.
  void refill_from_far();

  std::uint32_t alloc_node(const Entry& entry);

  Time granularity_;
  double inv_granularity_;
  std::uint64_t cursor_ = 0;  // last surrendered (or start) tick
  std::size_t size_ = 0;
  std::uint64_t cascades_ = 0;

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_;

  // Per-level occupancy bitmap (bit = slot), bucket list heads, and a
  // conservative per-bucket minimum `at` (maintained on insert/link,
  // reset when a bucket empties; removals may leave it stale-low).
  std::uint64_t occupied_[kLevels] = {};
  std::uint32_t head_[kLevels * kSlotsPerLevel];
  Time bucket_min_[kLevels * kSlotsPerLevel];

  std::uint32_t far_head_ = kNil;
  Time far_min_ = kTimeNever;
  std::size_t far_size_ = 0;
};

}  // namespace burst
