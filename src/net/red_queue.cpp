#include "src/net/red_queue.hpp"

#include <algorithm>
#include <cmath>

namespace burst {

void RedQueue::update_avg(Time now) {
  if (idle_) {
    idle_ = false;
    if (cfg_.mean_pkt_tx_time > 0.0) {
      // Floyd–Jacobson wake-from-idle: decay the average as if m packets
      // had departed during the idle gap — avg ← (1-w)^m · avg — and
      // nothing else. The regular EWMA step below is for non-idle
      // arrivals only; stacking it on top of the decay double-counted
      // the arrival and biased avg low after every idle period.
      const double m = (now - idle_since_) / cfg_.mean_pkt_tx_time;
      if (m > 0.0) avg_ *= std::pow(1.0 - cfg_.weight, m);
      return;
    }
    // No idle-time estimate configured: fall through to the plain EWMA
    // (the queue is empty, so this samples q = 0, the pre-fix behavior).
  }
  avg_ = (1.0 - cfg_.weight) * avg_ +
         cfg_.weight * static_cast<double>(q_.size());
}

void RedQueue::maybe_adapt(Time now) {
  if (!cfg_.adaptive || now - last_adapt_ < cfg_.adapt_interval) return;
  last_adapt_ = now;
  // Self-configuring RED: too empty -> drop less aggressively; pinned at
  // or above max_th -> drop more aggressively.
  if (avg_ < cfg_.min_th) {
    max_p_ = std::max(cfg_.min_max_p, max_p_ / cfg_.adapt_factor);
  } else if (avg_ > cfg_.max_th) {
    max_p_ = std::min(cfg_.max_max_p, max_p_ * cfg_.adapt_factor);
  }
}

double RedQueue::drop_probability(double avg, std::int64_t count) const {
  const double pb =
      max_p_ * (avg - cfg_.min_th) / (cfg_.max_th - cfg_.min_th);
  const double denom =
      1.0 - static_cast<double>(std::max<std::int64_t>(count, 0)) * pb;
  return denom <= 0.0 ? 1.0 : std::min(1.0, pb / denom);
}

bool RedQueue::do_enqueue(const Packet& p, Time now) {
  update_avg(now);
  maybe_adapt(now);

  if (q_.size() >= cfg_.capacity) {
    ++stats_.forced_drops;
    count_ = 0;
    return false;
  }
  if (avg_ >= cfg_.max_th) {
    // Above max_th RED sheds load unconditionally, even for ECN flows
    // (marking cannot relieve a queue this persistent).
    ++stats_.early_drops;
    count_ = 0;
    return false;
  }
  bool mark = false;
  if (avg_ >= cfg_.min_th) {
    // Floyd–Jacobson: `count` is the number of packets enqueued since the
    // last drop, *excluding* the arriving one — the first candidate after
    // a drop sees pa = pb, the n-th pa = pb / (1 - (n-1)·pb), making the
    // inter-drop gap uniform on {1, ..., 1/pb}. Sampling pa *after* the
    // increment (the old off-by-one) skewed every gap one packet short.
    const double pa = drop_probability(avg_, count_);
    ++count_;
    if (rng_.bernoulli(pa)) {
      if (cfg_.ecn && p.ecn_capable) {
        mark = true;  // mark-instead-of-drop
        ++marks_;
        count_ = 0;
      } else {
        ++stats_.early_drops;
        count_ = 0;
        return false;
      }
    }
  } else {
    count_ = -1;
  }
  q_.push_back(p);
  // The mark goes on the stored copy: the offered packet, which the taps
  // and the trace report, stays unmarked.
  if (mark) q_.back().ecn_marked = true;
  return true;
}

bool RedQueue::dequeue(Time now, Packet& out) {
  if (q_.empty()) return false;
  out = q_.front();
  q_.pop_front();
  count_departure();
  if (q_.empty()) {
    idle_ = true;
    idle_since_ = now;
  }
  return true;
}

}  // namespace burst
