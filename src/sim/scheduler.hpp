// Event scheduler: (time, tie-time, sequence) ordered events with
// generation-tagged handles, held in a hierarchical timing wheel until
// their tick comes up and in an indexed 4-ary min-heap within it.
//
// Two events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-break via a monotone sequence number), which keeps
// runs bit-for-bit deterministic. A caller that *fuses* several logical
// events into one insert (see SimplexLink) can pass an explicit tie-break
// time: events with the same `at` order by (tie_time, seq), so a fused
// event inserted early can still claim the heap position its unfused
// ancestor would have had. Since seq is monotone in insertion (and hence
// in simulated time), tie_time == insertion time reproduces plain FIFO
// exactly — which is what Simulator passes by default. The heap and the
// wheel store slot indices and every slot knows where it is held, so:
//
//  * pending() is an O(1) generation check (no shadow hash set),
//  * cancel() is a true removal — O(1) from the wheel, O(log n) from the
//    heap — that frees the callback immediately (no tombstones to skip
//    at pop time),
//  * callbacks live in SmallFn's inline buffer, so the common
//    timer/packet-arrival event never heap-allocates.
//
// The 4-ary layout halves the tree depth of a binary heap; sort keys and
// slot indices live in separate parallel arrays so the child scan reads
// nothing but contiguous 24-byte keys, and the root is removed with
// Floyd's bottom-up deletion (sift the hole to a leaf, then sift the
// displaced last element up). Measurably faster than the old
// std::priority_queue<Item> (which sifted 80-byte items holding
// std::functions) for the schedule/pop mix that dominates runs (see
// bench/sched_events and bench/packet_path).
//
// One insert path, two stores (DESIGN.md §11): schedule_at_reserved()
// parks every event whose tick (256 µs) lies past the wheel cursor in a
// hierarchical timing wheel, O(1), and puts the rest — events due within
// the current tick — on the heap. The one exception is an event due
// before everything pending: it pops next, so it goes straight on the
// heap instead of taking a round trip through the wheel (the heap keeps
// at most one such event). Before any pop that could reach a wheel
// resident, settle() flushes the wheel's earliest tick into the heap,
// full sort key attached. So the heap holds only the events of the
// current tick, a handful, and every pop still leaves it in exact
// (at, tie_time, seq) order: runs are bit-identical whichever store held
// an event, and the heap's depth does not grow with the in-flight packet
// and armed-timer count.
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/small_fn.hpp"
#include "src/sim/time.hpp"
#include "src/sim/timing_wheel.hpp"

namespace burst {

/// Opaque handle identifying a scheduled event; usable for cancellation.
/// Encodes (slot generation << 32 | slot index + 1); a handle is valid
/// until its event fires or is cancelled, after which the slot's bumped
/// generation retires it. (A stale handle could only alias after the same
/// slot is reused 2^32 times while the handle is still held.)
using EventId = std::uint64_t;

/// Sentinel for "no event".
inline constexpr EventId kInvalidEventId = 0;

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Schedules @p fn to run at absolute time @p at. Returns a handle that
  /// can be passed to cancel(). Among events with equal @p at, order is
  /// (tie_time, insertion order); pass the simulated insertion instant as
  /// @p tie_time (Simulator does) for plain FIFO, or an explicit virtual
  /// instant to splice a fused event into the order an unfused event
  /// inserted at that instant would have had.
  EventId schedule_at(Time at, SmallFn&& fn, Time tie_time = 0.0);

  /// Reserves the FIFO position the next schedule_at call would receive,
  /// without inserting anything. A fused caller burns one of these at the
  /// instant its unfused ancestor *would* have scheduled (SimplexLink does
  /// at every transmission start) and redeems it later via
  /// schedule_at_reserved() — the event then sorts exactly where the
  /// ancestor's would have, even though it was inserted later.
  std::uint64_t reserve_order() { return next_seq_++; }

  /// Schedules @p fn at @p at with an explicit (tie_time, order) rank from
  /// reserve_order(). Events with equal @p at order by (tie_time, order).
  /// The one insert path: an event due after the wheel cursor's tick parks
  /// in the timing wheel, one due within it — or due before everything
  /// pending — goes on the heap.
  EventId schedule_at_reserved(Time at, Time tie_time, std::uint64_t order,
                               SmallFn&& fn);

  /// Cancels a pending event, releasing its callback immediately.
  /// Cancelling an already-fired, already-cancelled, or invalid id is a
  /// harmless no-op (counted in stale_cancels() so tests can assert that
  /// well-behaved callers never rely on it).
  void cancel(EventId id);

  /// True iff the given event is scheduled and not yet fired or cancelled.
  bool pending(EventId id) const {
    const std::uint32_t idx = slot_of(id);
    return idx < slots_.size() && slots_[idx].generation == generation_of(id) &&
           slots_[idx].heap_pos != kFreePos;
  }

  /// True if no events remain (heap and wheel).
  bool empty() const { return keys_.empty() && wheel_.empty(); }

  /// Number of events currently pending (heap and wheel).
  std::size_t size() const { return keys_.size() + wheel_.size(); }

  /// Time of the earliest event, or kTimeNever if none. Settles the
  /// wheel first, so the answer is exact across both structures.
  Time next_time() {
    settle();
    return keys_.empty() ? kTimeNever : keys_[0].at;
  }

  /// A popped event, ready to invoke. The caller advances its clock to
  /// `at` *before* invoking `fn`, so callbacks observe the correct time.
  struct Ready {
    Time at;
    SmallFn fn;
  };

  /// Pops the earliest event without invoking it. Precondition: !empty().
  Ready take_next();

  /// The tie-break instant of the most recently popped event (see
  /// schedule_at). Valid after take_next(); Simulator snapshots it as the
  /// executing event's causality stamp for cross-LP handoffs.
  Time popped_tie() const { return popped_tie_; }

  /// Total events ever scheduled (for diagnostics / benchmarks).
  std::uint64_t scheduled_count() const { return scheduled_count_; }

  /// High-water mark of simultaneously pending events (heap + wheel).
  std::uint64_t peak_pending() const { return peak_pending_; }

  /// Cancels issued against already-retired (fired or cancelled) handles.
  /// Always a safe no-op thanks to generation tagging, but a caller that
  /// relies on it is holding stale state; tests pin this to zero for the
  /// traffic sources (see sources_test / scheduler_fuzz_test).
  std::uint64_t stale_cancels() const { return stale_cancels_; }

  /// Events currently parked in the timing wheel (diagnostics).
  std::size_t wheel_size() const { return wheel_.size(); }

 private:
  /// heap_pos is the slot's location tag: kFreePos when free, kInWheel
  /// for an event parked in the timing wheel (under the slot's own
  /// index), or its heap index.
  struct Slot {
    SmallFn fn;
    std::uint32_t generation = 0;
    std::uint32_t heap_pos = kFreePos;
  };
  /// The full (time, tie-time, seq) sort key, the same in the wheel and
  /// the heap. Heap keys live in their own contiguous array, separate
  /// from the slot indices, so the sift-down child scan reads pure
  /// 24-byte keys: a 4-child scan touches 96 bytes instead of the 160 a
  /// combined key+slot entry would.
  using Key = TimingWheel::Entry;
  static constexpr std::uint32_t kFreePos = 0xffffffffu;
  static constexpr std::uint32_t kInWheel = 0xfffffffeu;

  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
  }
  static std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static EventId make_id(std::uint32_t idx, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) |
           (static_cast<EventId>(idx) + 1);
  }

  static bool earlier(const Key& a, const Key& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.tie_time != b.tie_time) return a.tie_time < b.tie_time;
    return a.seq < b.seq;
  }

  void place(std::uint32_t pos, const Key& k, std::uint32_t slot) {
    keys_[pos] = k;
    heap_slot_[pos] = slot;
    slots_[slot].heap_pos = pos;
  }
  void sift_up(std::uint32_t pos);
  void sift_down(std::uint32_t pos);
  /// Removes the root: sifts the hole down along the min-child path to a
  /// leaf, then sifts the displaced last element up from there (Floyd's
  /// bottom-up deletion — the last element almost always belongs near the
  /// bottom, so this skips the per-level compare against it that a plain
  /// top-down sift pays).
  void remove_root();
  /// Removes the heap entry at @p pos (the slot itself is freed by the
  /// caller) and restores the heap property.
  void remove_heap_entry(std::uint32_t pos);
  void free_slot(std::uint32_t idx);
  /// Inserts an already-ranked key for @p slot into the heap (shared by
  /// schedule_at_reserved and the wheel flush; does not touch counters).
  void heap_insert(const Key& k, std::uint32_t slot);
  /// Flushes wheel buckets into the heap until the heap top is a safe
  /// global minimum: earlier than every wheel resident's bound. Each
  /// flushed bucket is one wheel tick, and ticks are monotone in `at`, so
  /// a flush can never leapfrog a remaining resident.
  void settle() {
    while (!wheel_.empty() &&
           (keys_.empty() || keys_[0].at >= wheel_.min_at_bound())) {
      flush_earliest_tick();
    }
  }
  /// Moves the wheel's earliest tick into the heap.
  void flush_earliest_tick();

  std::vector<Slot> slots_;   // stable storage for pending callbacks
  // 4-ary min-heap on (at, tie_time, seq); keys_ and heap_slot_ are
  // parallel arrays (see Key).
  std::vector<Key> keys_;
  std::vector<std::uint32_t> heap_slot_;
  std::vector<std::uint32_t> free_;  // recycled slot indices
  std::uint64_t next_seq_ = 1;
  Time popped_tie_ = 0.0;
  std::uint64_t scheduled_count_ = 0;
  std::uint64_t peak_pending_ = 0;
  std::uint64_t stale_cancels_ = 0;

  TimingWheel wheel_;  // events due after the cursor's tick
};

}  // namespace burst
