#include "src/transport/tcp_sack.hpp"

#include <algorithm>

namespace burst {

void TcpSack::on_ack_info(const Packet& p) {
  for (int i = 0; i < p.sack_count; ++i) {
    for (std::int64_t s = p.sack[i].lo; s < p.sack[i].hi; ++s) {
      if (s >= snd_una()) sacked_.insert(s);
    }
  }
  // Anything below the cumulative ACK is delivered; drop it from the
  // scoreboard.
  sacked_.erase(sacked_.begin(), sacked_.lower_bound(p.ack));
}

std::int64_t TcpSack::next_hole() const {
  for (std::int64_t s = snd_una(); s < recover_; ++s) {
    if (!sacked_.contains(s) && !rexmitted_.contains(s)) return s;
  }
  return -1;
}

void TcpSack::enter_recovery() {
  ++stats_.fast_retransmits;
  in_recovery_ = true;
  recover_ = snd_nxt();
  rexmitted_.clear();
  set_ssthresh(std::max(static_cast<double>(flight()) / 2.0, 2.0));
  set_cwnd(ssthresh());
  // Conservative pipe: what we believe is still in the network.
  pipe_ = static_cast<double>(flight()) - static_cast<double>(sacked_.size()) -
          static_cast<double>(dupacks());
  pipe_ = std::max(pipe_, 0.0);
  fill_pipe();
  restart_rto_timer();
}

void TcpSack::leave_recovery() {
  in_recovery_ = false;
  rexmitted_.clear();
  set_cwnd(ssthresh());
}

void TcpSack::fill_pipe() {
  while (pipe_ < cwnd()) {
    const std::int64_t hole = next_hole();
    if (hole >= 0) {
      send_segment(hole);
      rexmitted_.insert(hole);
    } else if (!send_new_segment()) {
      return;  // neither holes nor new data
    }
    pipe_ += 1.0;
  }
}

void TcpSack::on_new_ack(std::int64_t acked, std::int64_t ack_seq) {
  if (in_recovery_) {
    if (ack_seq >= recover_) {
      leave_recovery();
      return;
    }
    // Partial ACK: the hole at the old snd_una was filled; account the
    // delivered packets, then keep the pipe full.
    pipe_ = std::max(0.0, pipe_ - static_cast<double>(acked));
    // The packet just cumulatively acked may have been counted as
    // retransmitted; sequences below snd_una are gone from both sets.
    rexmitted_.erase(rexmitted_.begin(), rexmitted_.lower_bound(ack_seq));
    fill_pipe();
    restart_rto_timer();
    return;
  }
  standard_growth();
}

void TcpSack::on_dup_ack() {
  if (in_recovery_) {
    pipe_ = std::max(0.0, pipe_ - 1.0);  // one more packet left the pipe
    fill_pipe();
    return;
  }
  if (dupacks() != kDupAckThreshold) return;
  enter_recovery();
}

void TcpSack::on_timeout_window() {
  in_recovery_ = false;
  sacked_.clear();  // be conservative after a timeout (ns-2 behavior)
  rexmitted_.clear();
  set_cwnd(1.0);
}

}  // namespace burst
