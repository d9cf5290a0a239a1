#include "src/net/drop_tail_queue.hpp"

namespace burst {

bool DropTailQueue::do_enqueue(const Packet& p, Time /*now*/) {
  if (q_.size() >= capacity_) {
    ++stats_.forced_drops;
    return false;
  }
  q_.push_back(p);
  return true;
}

bool DropTailQueue::dequeue(Time /*now*/, Packet& out) {
  if (q_.empty()) return false;
  out = q_.front();
  q_.pop_front();
  count_departure();
  return true;
}

}  // namespace burst
