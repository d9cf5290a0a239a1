// The send times of a TCP sender's outstanding window.
//
// A sender transmits new sequences in order, and every retransmission
// (go-back-N, fast retransmit, a SACK hole) resends a sequence below
// snd_max. So the sequences it has sent and not yet had cumulatively
// acknowledged are exactly the window [snd_una, snd_max), and each has a
// last send time. SendTimeRing holds the window's two cursors and those
// times: a power-of-two vector indexed by seq & mask that doubles when
// the window outgrows it. Every outstanding sequence owns its slot, so a
// lookup needs no tag and no overflow map, and the ring is sized by what
// the sender actually put in flight, not by the advertised window.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/time.hpp"

namespace burst {

class SendTimeRing {
 public:
  /// First sequence not yet cumulatively acknowledged.
  std::int64_t snd_una() const { return una_; }
  /// One past the highest sequence ever sent.
  std::int64_t snd_max() const { return max_; }

  /// Records that @p seq left at @p at. Sends never skip ahead: @p seq is
  /// in [snd_una, snd_max], and sending snd_max widens the window.
  void record(std::int64_t seq, Time at) {
    assert(seq >= una_ && seq <= max_ && "sends never skip a sequence");
    if (seq == max_) {
      if (static_cast<std::size_t>(max_ - una_) == times_.size()) grow();
      ++max_;
    }
    times_[static_cast<std::size_t>(seq) & mask_] = at;
  }

  /// A cumulative ACK: every sequence below @p ack has arrived. An ACK
  /// past snd_max (which no receiver sends) leaves the window empty.
  void ack(std::int64_t ack) {
    assert(ack >= una_);
    una_ = ack;
    if (max_ < ack) max_ = ack;
  }

  /// When @p seq was last sent; kTimeNever outside [snd_una, snd_max).
  Time sent_at(std::int64_t seq) const {
    if (seq < una_ || seq >= max_) return kTimeNever;
    return times_[static_cast<std::size_t>(seq) & mask_];
  }

  /// Slots held: 0 before the first send, then a power of two.
  std::size_t capacity() const { return times_.size(); }

 private:
  static constexpr std::size_t kMinCapacity = 8;

  void grow() {
    const std::size_t cap =
        times_.empty() ? kMinCapacity : 2 * times_.size();
    std::vector<Time> next(cap);
    for (std::int64_t s = una_; s < max_; ++s) {
      next[static_cast<std::size_t>(s) & (cap - 1)] =
          times_[static_cast<std::size_t>(s) & mask_];
    }
    times_.swap(next);
    mask_ = cap - 1;
  }

  std::vector<Time> times_;
  std::size_t mask_ = 0;
  std::int64_t una_ = 0;
  std::int64_t max_ = 0;
};

}  // namespace burst
