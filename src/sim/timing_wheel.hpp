// Hierarchical timing wheel (Varghese & Lauck): where the Scheduler
// parks the events that are due after the current tick.
//
// Why: the indexed 4-ary heap pays O(log n) per insert and pop, where n
// is everything pending. A paper run keeps a few hundred in-flight
// packets, Poisson ticks and timers pending; a mean-field run (10^5–10^6
// flows) keeps one RTO timer per flow armed. The wheel stores all of
// them in O(1) buckets and feeds the heap one tick at a time, so the
// heap holds only the events of the current tick (DESIGN.md §11).
//
// Structure: kLevels levels of 64 slots each; a level-i slot spans
// 64^i base ticks (tick = floor(at / granularity)). An entry lands on the
// lowest level whose 64-slot window, anchored at the cursor, reaches its
// tick; entries beyond the top level wait in an overflow ("far") list.
// One occupancy bitmap per level makes "next non-empty bucket" a ctz, so
// advancing across long empty gaps never walks slots one by one.
//
// Ordering contract (what keeps the scheduler's pop order exact): the
// wheel never fires anything itself. pop_earliest() always surrenders
// the bucket with the smallest base tick — cascading coarse buckets down
// level by level — until a level-0 bucket (a single tick) is due, and
// hands its entries, full (at, tie_time, seq) keys attached, to the
// caller to merge into the heap. Because tick = floor(at/granularity) is
// monotone in `at`, an entry still in the wheel can never sort before one
// the wheel has already surrendered; exact (at, tie_time, seq) order —
// including ties between heap and wheel residents — is restored by the
// heap. min_at_bound() gives the caller a cached lower bound on every
// resident's `at`, so the heap can keep popping without touching the
// wheel until a wheel entry could actually be next.
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/time.hpp"

namespace burst {

class TimingWheel {
 public:
  /// Sentinel node id meaning "none".
  static constexpr std::uint32_t kNil = 0xffffffffu;

  static constexpr int kLevels = 5;
  static constexpr std::uint32_t kSlotsPerLevel = 64;

  /// A resident event's full sort key, carried verbatim so the heap can
  /// merge surrendered entries into exact global order.
  struct Entry {
    Time at;
    Time tie_time;  // virtual insertion instant (see Scheduler::schedule_at)
    std::uint64_t seq;  // FIFO tie-break among equal-(at, tie_time)
  };

  /// @p granularity is the level-0 tick width in seconds. The default
  /// (256 µs) holds a few events per tick at the paper's load while
  /// spanning ~3.2 simulated days before the far list engages (64^5
  /// ticks).
  explicit TimingWheel(Time granularity = 256e-6);

  /// True if @p at is far enough out to bucket (strictly after the
  /// cursor tick). The caller routes non-accepted events to the heap —
  /// they are due within the current tick, where bucketing buys nothing.
  bool accepts(Time at) const { return tick_of(at) > cursor_; }

  /// Inserts @p entry under the caller's id @p id: any index no resident
  /// holds (the scheduler passes the event's slot index, so the wheel
  /// keeps no node free list; node storage grows to the largest id).
  /// Precondition: accepts(entry.at). O(1).
  void insert(std::uint32_t id, const Entry& entry);

  /// Unlinks resident @p id (true cancel). O(1).
  void remove(std::uint32_t id);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Lower bound on the `at` of every resident entry, or kTimeNever when
  /// empty. O(1): a cached value, lowered by insert() and recomputed
  /// when pop_earliest() surrenders a bucket or remove() takes out the
  /// minimum. It may sit below the true minimum (a bucket's minimum is
  /// not recomputed when another of its entries leaves), which can only
  /// make the caller flush a bucket early — never pop the heap past a
  /// resident entry.
  Time min_at_bound() const { return min_bound_; }

  /// Surrenders the earliest-tick bucket: cascades coarser buckets down
  /// levels as needed, advances the cursor to that tick, and calls
  /// @p take(std::uint32_t id, const Entry&) on each of its entries (at
  /// least one), which leave the wheel. @p take must not touch the
  /// wheel. Precondition: !empty(). Amortized O(1) per entry over its
  /// lifetime (each node cascades at most kLevels times).
  template <typename Take>
  void pop_earliest(Take&& take) {
    std::uint32_t n = detach_earliest_tick();
    while (n != kNil) {
      const Node& node = nodes_[n];
      const std::uint32_t next = node.next;
      take(n, node.entry);
      --size_;
      n = next;
    }
    refresh_min();
  }

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

  /// Links @p node at the head of the bucket for @p tick at @p level (or
  /// of the far list for level == kLevels), setting its prev/next.
  void link(std::uint32_t node, std::uint64_t tick, int level);
  void unlink(std::uint32_t node);

  /// Moves every far-list node back through link(); called when all
  /// levels are empty, after advancing the cursor to the far minimum.
  void refill_from_far();

  /// pop_earliest()'s cascade: unlinks the earliest level-0 bucket, once
  /// coarser buckets have cascaded down to it, advances the cursor to its
  /// tick and returns the head of its node list.
  std::uint32_t detach_earliest_tick();

  /// Recomputes min_bound_ from the earliest occupied bucket of each
  /// level and the far list.
  void refresh_min();

  Time granularity_;
  double inv_granularity_;
  std::uint64_t cursor_ = 0;  // last surrendered (or start) tick
  std::size_t size_ = 0;
  std::uint64_t cascades_ = 0;
  Time min_bound_ = kTimeNever;  // see min_at_bound()

  std::vector<Node> nodes_;  // indexed by the caller's id

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
