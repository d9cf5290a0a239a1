#include "src/transport/tcp_tahoe.hpp"

#include <algorithm>

namespace burst {

void TcpTahoe::on_new_ack(std::int64_t /*acked*/, std::int64_t /*ack_seq*/) {
  standard_growth();
}

void TcpTahoe::on_dup_ack() {
  if (dupacks() != kDupAckThreshold) return;
  ++stats_.fast_retransmits;
  set_ssthresh(std::max(static_cast<double>(flight()) / 2.0, 2.0));
  rewind_to_una();   // Tahoe re-slow-starts from the hole
  set_cwnd(1.0);
  // The retransmission itself comes from the caller's try_send() after the
  // rewind, exactly like the RTO path: an explicit retransmit_una() here
  // would send the hole twice (once unrewound, once via try_send).
  restart_rto_timer();
}

void TcpTahoe::on_timeout_window() { set_cwnd(1.0); }

}  // namespace burst
