#include "src/sim/timing_wheel.hpp"

#include <algorithm>
#include <cassert>

namespace burst {

namespace {

inline std::uint64_t rotr64(std::uint64_t x, std::uint32_t r) {
  return r == 0 ? x : (x >> r) | (x << (64u - r));
}

}  // namespace

TimingWheel::TimingWheel(Time granularity)
    : granularity_(granularity), inv_granularity_(1.0 / granularity) {
  assert(granularity > 0.0);
  std::fill(std::begin(head_), std::end(head_), kNil);
}

int TimingWheel::level_for(std::uint64_t tick) const {
  assert(tick >= cursor_);
  for (int i = 0; i < kLevels; ++i) {
    const std::uint32_t shift = 6u * static_cast<std::uint32_t>(i);
    // The level-i window reaches 64 slot indices from the cursor's slot;
    // comparing slot indices (not tick deltas) keeps a slot unambiguous —
    // no two residents of one slot can come from different revolutions.
    if ((tick >> shift) - (cursor_ >> shift) < kSlotsPerLevel) return i;
  }
  return kLevels;
}

void TimingWheel::link(std::uint32_t n, std::uint64_t tick, int level) {
  Node& node = nodes_[n];
  node.prev = kNil;
  if (level >= kLevels) {
    node.bucket = kFarBucket;
    node.next = far_head_;
    if (far_head_ != kNil) nodes_[far_head_].prev = n;
    far_head_ = n;
    ++far_size_;
    far_min_ = std::min(far_min_, node.entry.at);
    return;
  }
  const std::uint32_t shift = 6u * static_cast<std::uint32_t>(level);
  const std::uint32_t slot =
      static_cast<std::uint32_t>(tick >> shift) & (kSlotsPerLevel - 1);
  const std::uint32_t b =
      static_cast<std::uint32_t>(level) * kSlotsPerLevel + slot;
  node.bucket = b;
  node.next = head_[b];
  if (head_[b] != kNil) nodes_[head_[b]].prev = n;
  head_[b] = n;
  const std::uint64_t bit = std::uint64_t{1} << slot;
  if (occupied_[level] & bit) {
    bucket_min_[b] = std::min(bucket_min_[b], node.entry.at);
  } else {
    occupied_[level] |= bit;
    bucket_min_[b] = node.entry.at;
  }
}

void TimingWheel::unlink(std::uint32_t n) {
  Node& node = nodes_[n];
  if (node.prev != kNil) {
    nodes_[node.prev].next = node.next;
  } else if (node.bucket == kFarBucket) {
    far_head_ = node.next;
  } else {
    head_[node.bucket] = node.next;
  }
  if (node.next != kNil) nodes_[node.next].prev = node.prev;
  if (node.bucket == kFarBucket) {
    --far_size_;
    if (far_head_ == kNil) far_min_ = kTimeNever;
  } else if (head_[node.bucket] == kNil) {
    occupied_[node.bucket / kSlotsPerLevel] &=
        ~(std::uint64_t{1} << (node.bucket % kSlotsPerLevel));
  }
}

void TimingWheel::insert(std::uint32_t id, const Entry& entry) {
  const std::uint64_t tick = tick_of(entry.at);
  assert(tick > cursor_ && "insert requires accepts(at)");
  assert(id != kNil);
  if (id >= nodes_.size()) nodes_.resize(std::size_t{id} + 1);
  nodes_[id].entry = entry;
  link(id, tick, level_for(tick));
  ++size_;
  if (entry.at < min_bound_) min_bound_ = entry.at;
}

void TimingWheel::remove(std::uint32_t id) {
  const Time at = nodes_[id].entry.at;
  unlink(id);
  --size_;
  if (at <= min_bound_) refresh_min();
}

void TimingWheel::refresh_min() {
  Time m = far_min_;
  for (int i = 0; i < kLevels; ++i) {
    if (!occupied_[i]) continue;
    const std::uint32_t shift = 6u * static_cast<std::uint32_t>(i);
    const std::uint32_t p =
        static_cast<std::uint32_t>(cursor_ >> shift) & (kSlotsPerLevel - 1);
    // First occupied slot cyclically from the cursor's = the level's
    // earliest-tick bucket (all residents sit within one revolution).
    const std::uint32_t d = static_cast<std::uint32_t>(
        __builtin_ctzll(rotr64(occupied_[i], p)));
    const std::uint32_t slot = (p + d) & (kSlotsPerLevel - 1);
    m = std::min(m,
                 bucket_min_[static_cast<std::uint32_t>(i) * kSlotsPerLevel +
                             slot]);
  }
  min_bound_ = m;
}

void TimingWheel::refill_from_far() {
  assert(far_head_ != kNil);
  std::uint64_t min_tick = ~std::uint64_t{0};
  for (std::uint32_t n = far_head_; n != kNil; n = nodes_[n].next) {
    min_tick = std::min(min_tick, tick_of(nodes_[n].entry.at));
  }
  if (cursor_ < min_tick) cursor_ = min_tick;
  std::uint32_t n = far_head_;
  far_head_ = kNil;
  far_size_ = 0;
  far_min_ = kTimeNever;
  while (n != kNil) {
    const std::uint32_t next = nodes_[n].next;
    const std::uint64_t tick = tick_of(nodes_[n].entry.at);
    link(n, tick, level_for(tick));
    n = next;
  }
}

std::uint32_t TimingWheel::detach_earliest_tick() {
  assert(size_ > 0 && "pop_earliest on empty wheel");
  for (;;) {
    int best_level = -1;
    std::uint64_t best_base = 0;
    std::uint32_t best_bucket = 0;
    for (int i = 0; i < kLevels; ++i) {
      if (!occupied_[i]) continue;
      const std::uint32_t shift = 6u * static_cast<std::uint32_t>(i);
      const std::uint64_t cur_index = cursor_ >> shift;
      const std::uint32_t p =
          static_cast<std::uint32_t>(cur_index) & (kSlotsPerLevel - 1);
      const std::uint32_t d = static_cast<std::uint32_t>(
          __builtin_ctzll(rotr64(occupied_[i], p)));
      const std::uint64_t base = (cur_index + d) << shift;
      if (best_level < 0 || base < best_base) {
        best_level = i;
        best_base = base;
        best_bucket = static_cast<std::uint32_t>(i) * kSlotsPerLevel +
                      ((p + d) & (kSlotsPerLevel - 1));
      }
    }
    if (best_level < 0) {
      // Every level is empty; only the far list holds entries. Jump the
      // cursor to their minimum tick and re-bucket them.
      refill_from_far();
      continue;
    }
    // Surrender (or cascade) strictly in base-tick order; the cursor
    // never retreats, so tick >= cursor_ stays invariant for residents.
    if (cursor_ < best_base) cursor_ = best_base;
    std::uint32_t n = head_[best_bucket];
    head_[best_bucket] = kNil;
    occupied_[best_level] &=
        ~(std::uint64_t{1} << (best_bucket % kSlotsPerLevel));
    if (best_level == 0) {
      // A level-0 bucket is a single tick: its entries go to the heap,
      // which restores exact (at, tie_time, seq) order among them.
      return n;
    }
    // Coarse bucket: redistribute one level (or more) down. Each entry's
    // slot-index distance from the new cursor is < 64 at the level below,
    // so the cascade strictly descends and terminates.
    while (n != kNil) {
      const std::uint32_t next = nodes_[n].next;
      const std::uint64_t tick = tick_of(nodes_[n].entry.at);
      const int level = level_for(tick);
      assert(level < best_level);
      link(n, tick, level);
      ++cascades_;
      n = next;
    }
  }
}

}  // namespace burst
