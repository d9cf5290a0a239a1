#include "src/transport/tcp_newreno.hpp"

#include <algorithm>

namespace burst {

void TcpNewReno::on_new_ack(std::int64_t acked, std::int64_t ack_seq) {
  if (in_recovery_) {
    // recover_ is one past the highest sequence outstanding at loss
    // detection, so an ACK covering it (>=) ends recovery.
    if (ack_seq >= recover_) {
      in_recovery_ = false;
      set_cwnd(ssthresh());
    } else {
      // Partial ACK: retransmit the next hole, partially deflate.
      retransmit_una();
      set_cwnd(std::max(ssthresh(), cwnd() - static_cast<double>(acked) + 1.0));
      restart_rto_timer();
    }
    return;
  }
  standard_growth();
}

void TcpNewReno::on_dup_ack() {
  if (in_recovery_) {
    set_cwnd(cwnd() + 1.0);
    return;
  }
  if (dupacks() != kDupAckThreshold) return;
  ++stats_.fast_retransmits;
  recover_ = snd_nxt();
  set_ssthresh(std::max(static_cast<double>(flight()) / 2.0, 2.0));
  retransmit_una();
  in_recovery_ = true;
  set_cwnd(ssthresh() + static_cast<double>(kDupAckThreshold));
  restart_rto_timer();
}

void TcpNewReno::on_timeout_window() {
  in_recovery_ = false;
  recover_ = snd_nxt();
  set_cwnd(1.0);
}

}  // namespace burst
