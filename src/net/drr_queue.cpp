#include "src/net/drr_queue.hpp"

#include <cassert>

namespace burst {

void DrrQueue::deactivate(FlowState& f, FlowId /*id*/) {
  if (!f.in_active) return;
  active_.erase(f.active_pos);
  f.in_active = false;
  f.deficit = 0;  // an idling flow must not bank credit
  f.needs_quantum = true;
}

Packet DrrQueue::drop_from_longest() {
  FlowId victim = -1;
  std::size_t longest = 0;
  for (const auto& [id, f] : flows_) {
    if (f.q.size() > longest) {
      longest = f.q.size();
      victim = id;
    }
  }
  assert(victim != -1 && "drop_from_longest on empty DRR queue");
  FlowState& f = flows_[victim];
  Packet dropped = f.q.back();
  f.q.pop_back();
  --total_;
  if (f.q.empty()) deactivate(f, victim);
  return dropped;
}

bool DrrQueue::do_enqueue(const Packet& p, Time now) {
  if (total_ >= cfg_.capacity) {
    // Longest-queue drop: penalize the most backlogged flow. If the
    // arriving flow would itself be (one of) the longest, reject the
    // arrival; otherwise displace the tail of the longest queue.
    FlowState& mine = flows_[p.flow];
    std::size_t longest = 0;
    for (const auto& [id, f] : flows_) longest = std::max(longest, f.q.size());
    if (mine.q.size() + 1 > longest) {
      ++stats_.forced_drops;
      return false;
    }
    count_displaced_drop(drop_from_longest(), now);
  }
  FlowState& f = flows_[p.flow];
  f.q.push_back(p);
  ++total_;
  if (!f.in_active) {
    active_.push_back(p.flow);
    f.active_pos = std::prev(active_.end());
    f.in_active = true;
    f.needs_quantum = true;
  }
  return true;
}

bool DrrQueue::dequeue(Time /*now*/, Packet& out) {
  while (!active_.empty()) {
    const FlowId id = active_.front();
    FlowState& f = flows_[id];
    assert(!f.q.empty());
    if (f.needs_quantum) {
      f.deficit += cfg_.quantum_bytes;  // exactly once per round visit
      f.needs_quantum = false;
    }
    if (f.deficit >= f.q.front().size_bytes) {
      out = f.q.front();
      f.q.pop_front();
      f.deficit -= out.size_bytes;
      --total_;
      if (f.q.empty()) {
        deactivate(f, id);
      }
      count_departure();
      return true;
    }
    // This round's credit is spent: move to the back of the round, keeping
    // the residual deficit (large packets accumulate credit over rounds).
    f.needs_quantum = true;
    active_.splice(active_.end(), active_, f.active_pos);
    f.active_pos = std::prev(active_.end());
  }
  return false;
}

}  // namespace burst
