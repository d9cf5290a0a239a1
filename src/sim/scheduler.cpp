#include "src/sim/scheduler.hpp"

#include <cassert>
#include <utility>

namespace burst {

// 4-ary heap layout: children of pos are 4*pos+1 .. 4*pos+4, parent is
// (pos-1)/4. The (time, tie-time, seq) keys live in keys_, the owning slot
// index in the parallel heap_slot_ array, so a sift's comparisons touch
// only the contiguous key array plus one heap_pos write per move; the Slot
// bodies (callbacks) never move.

void Scheduler::sift_up(std::uint32_t pos) {
  const Key k = keys_[pos];
  const std::uint32_t slot = heap_slot_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 4;
    if (!earlier(k, keys_[parent])) break;
    place(pos, keys_[parent], heap_slot_[parent]);
    pos = parent;
  }
  place(pos, k, slot);
}

void Scheduler::sift_down(std::uint32_t pos) {
  const std::uint32_t n = static_cast<std::uint32_t>(keys_.size());
  const Key k = keys_[pos];
  const std::uint32_t slot = heap_slot_[pos];
  while (true) {
    const std::uint32_t first_child = 4 * pos + 1;
    if (first_child >= n) break;
    std::uint32_t best = first_child;
    const std::uint32_t last_child =
        first_child + 3 < n - 1 ? first_child + 3 : n - 1;
    for (std::uint32_t c = first_child + 1; c <= last_child; ++c) {
      if (earlier(keys_[c], keys_[best])) best = c;
    }
    if (!earlier(keys_[best], k)) break;
    place(pos, keys_[best], heap_slot_[best]);
    pos = best;
  }
  place(pos, k, slot);
}

void Scheduler::remove_root() {
  const std::uint32_t n = static_cast<std::uint32_t>(keys_.size());
  if (n == 1) {
    keys_.pop_back();
    heap_slot_.pop_back();
    return;
  }
  // Floyd's bottom-up deletion: walk the hole down the min-child path all
  // the way to a leaf — promoting children without comparing against the
  // displaced element — then drop the last element into the hole and sift
  // it up. The last element came from the deepest layer, so the sift-up
  // nearly always stops immediately; this trades the sift-down's
  // per-level fourth comparison for one or two at the end.
  const std::uint32_t last = n - 1;
  std::uint32_t hole = 0;
  while (true) {
    const std::uint32_t first_child = 4 * hole + 1;
    if (first_child >= last) break;  // the hole reached leaf territory
    std::uint32_t best = first_child;
    const std::uint32_t last_child =
        first_child + 3 < last - 1 ? first_child + 3 : last - 1;
    for (std::uint32_t c = first_child + 1; c <= last_child; ++c) {
      if (earlier(keys_[c], keys_[best])) best = c;
    }
    place(hole, keys_[best], heap_slot_[best]);
    hole = best;
  }
  place(hole, keys_[last], heap_slot_[last]);
  keys_.pop_back();
  heap_slot_.pop_back();
  sift_up(hole);
}

void Scheduler::remove_heap_entry(std::uint32_t pos) {
  const std::uint32_t last = static_cast<std::uint32_t>(keys_.size()) - 1;
  if (pos != last) {
    place(pos, keys_[last], heap_slot_[last]);
    keys_.pop_back();
    heap_slot_.pop_back();
    // The displaced entry may need to move either direction.
    if (pos > 0 && earlier(keys_[pos], keys_[(pos - 1) / 4])) {
      sift_up(pos);
    } else {
      sift_down(pos);
    }
  } else {
    keys_.pop_back();
    heap_slot_.pop_back();
  }
}

void Scheduler::free_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  ++s.generation;  // retire every outstanding handle to this slot
  s.heap_pos = kFreePos;
  free_.push_back(idx);
}

EventId Scheduler::schedule_at(Time at, SmallFn&& fn, Time tie_time) {
  return schedule_at_reserved(at, tie_time, next_seq_++, std::move(fn));
}

void Scheduler::heap_insert(const Key& k, std::uint32_t slot) {
  const std::uint32_t pos = static_cast<std::uint32_t>(keys_.size());
  keys_.push_back(k);
  heap_slot_.push_back(slot);
  sift_up(pos);  // its last place() records the slot's heap position
}

EventId Scheduler::schedule_at_reserved(Time at, Time tie_time,
                                        std::uint64_t order, SmallFn&& fn) {
  std::uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[idx];
  s.fn = std::move(fn);
  // The full (at, tie_time, order) key rides along through the wheel, so
  // the eventual pop order is identical whichever store held the event.
  const Key k{at, tie_time, order};
  if (at < wheel_.min_at_bound() && (keys_.empty() || at < keys_[0].at)) {
    // Due before everything pending, so it pops next: it goes on the
    // heap, where settle() would hand its tick straight back anyway. The
    // heap keeps at most one event past the cursor's tick: if it holds
    // one, it holds nothing else (a current-tick event would precede
    // this one), and that event moves to the wheel.
    if (!keys_.empty() && wheel_.accepts(keys_[0].at)) {
      assert(keys_.size() == 1);
      const std::uint32_t prev = heap_slot_[0];
      wheel_.insert(prev, keys_[0]);
      remove_root();
      slots_[prev].heap_pos = kInWheel;
    }
    heap_insert(k, idx);
  } else if (wheel_.accepts(at)) {
    wheel_.insert(idx, k);
    s.heap_pos = kInWheel;
  } else {
    heap_insert(k, idx);  // due within the cursor's tick
  }
  ++scheduled_count_;
  if (size() > peak_pending_) peak_pending_ = size();
  return make_id(idx, s.generation);
}

void Scheduler::flush_earliest_tick() {
  wheel_.pop_earliest(
      [this](std::uint32_t slot, const Key& k) { heap_insert(k, slot); });
}

void Scheduler::cancel(EventId id) {
  if (!pending(id)) {
    if (id != kInvalidEventId) ++stale_cancels_;
    return;
  }
  const std::uint32_t idx = slot_of(id);
  slots_[idx].fn.reset();  // release captures now, not at pop time
  const std::uint32_t pos = slots_[idx].heap_pos;
  if (pos == kInWheel) {
    wheel_.remove(idx);
  } else {
    remove_heap_entry(pos);
  }
  free_slot(idx);
}

Scheduler::Ready Scheduler::take_next() {
  settle();
  assert(!keys_.empty() && "take_next on empty scheduler");
  const std::uint32_t idx = heap_slot_[0];
  // Move the callback out before touching the heap: the caller invokes it
  // after we return, and it may schedule freely (growing slots_/keys_).
  popped_tie_ = keys_[0].tie_time;
  Ready ready{keys_[0].at, std::move(slots_[idx].fn)};
  remove_root();
  free_slot(idx);
  return ready;
}

}  // namespace burst
