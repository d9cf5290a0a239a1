#include "src/transport/tcp_reno.hpp"

#include <algorithm>

namespace burst {

void TcpReno::on_new_ack(std::int64_t /*acked*/, std::int64_t /*ack_seq*/) {
  if (in_recovery_) {
    // Deflate: recovery ends on the first ACK for new data. (Classic Reno:
    // a partial ACK after multiple drops in one window usually stalls into
    // a timeout, which is part of the behavior the paper measures.)
    in_recovery_ = false;
    set_cwnd(ssthresh());
    return;
  }
  standard_growth();
}

void TcpReno::on_dup_ack() {
  if (in_recovery_) {
    set_cwnd(cwnd() + 1.0);  // window inflation per extra dup ACK
    return;
  }
  if (dupacks() != kDupAckThreshold) return;
  ++stats_.fast_retransmits;
  set_ssthresh(std::max(static_cast<double>(flight()) / 2.0, 2.0));
  retransmit_una();
  in_recovery_ = true;
  set_cwnd(ssthresh() + static_cast<double>(kDupAckThreshold));
  restart_rto_timer();
}

void TcpReno::on_timeout_window() {
  in_recovery_ = false;
  set_cwnd(1.0);  // slow start from scratch
}

}  // namespace burst
