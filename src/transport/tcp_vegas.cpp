#include "src/transport/tcp_vegas.hpp"

#include <algorithm>

namespace burst {

TcpVegas::TcpVegas(Simulator& sim, Node& node, FlowId flow, NodeId peer,
                   TcpConfig cfg, VegasConfig vegas)
    : TcpSender(sim, node, flow, peer, cfg), vegas_(vegas) {}

void TcpVegas::on_rtt_sample(Time rtt) {
  base_rtt_ = std::min(base_rtt_, rtt);
  ++epoch_rtt_cnt_;
}

void TcpVegas::reset_epoch() {
  epoch_start_ = now();
  epoch_una_start_ = snd_una();
  epoch_rtt_cnt_ = 0;
}

void TcpVegas::per_rtt_decision(Time epoch_len) {
  // Actual = useful (delivered) throughput: cumulative-ACK progress over
  // the round. Transmissions would double-count retransmitted holes and
  // inflate Actual exactly when the path is dropping.
  const double actual = static_cast<double>(snd_una() - epoch_una_start_) /
                        epoch_len;                  // pkts/s delivered
  const double expected = cwnd() / base_rtt_;       // pkts/s the window allows
  const double diff = (expected - actual) * base_rtt_;
  last_diff_ = diff;

  if (in_ss_) {
    if (diff > vegas_.gamma) {
      // Leaving slow start: shed the overshoot (1/8 cut, per Brakmo).
      in_ss_ = false;
      set_cwnd(std::max(2.0, cwnd() * 7.0 / 8.0));
    } else {
      ss_grow_round_ = !ss_grow_round_;  // double every other round
    }
  } else {
    if (diff < vegas_.alpha) {
      set_cwnd(cwnd() + 1.0);
    } else if (diff > vegas_.beta) {
      set_cwnd(std::max(2.0, cwnd() - 1.0));
    }
  }
  if (vegas_trace_) {
    TraceRecord r;
    r.time = now();
    r.type = TraceEventType::kVegasDiff;
    r.flow = flow();
    r.seq = snd_una();
    r.value = diff;
    r.aux = cwnd();  // post-decision window
    vegas_trace_->emit(r);
  }
}

bool TcpVegas::una_expired() const {
  const auto& est = rto_estimator();
  if (!est.has_sample()) return false;
  const Time fine_timeout = est.srtt() + 4.0 * est.rttvar();
  const Time first_sent = sent_at(snd_una());
  return first_sent != kTimeNever && now() - first_sent > fine_timeout;
}

void TcpVegas::on_new_ack(std::int64_t /*acked*/, std::int64_t /*ack_seq*/) {
  // Brakmo's fine-grained check on ACKs after a retransmission: if the new
  // head of the window has already exceeded the fine-grained timeout, it
  // was lost too — retransmit without waiting for dup ACKs or the coarse
  // timer. This is what keeps Vegas's timeout count near zero (Fig 13).
  if (flight() > 0 && una_expired() && snd_una() != last_fine_rexmit_) {
    loss_retransmit();
  }

  if (in_ss_ && ss_grow_round_) {
    set_cwnd(cwnd() + 1.0);  // exponential growth, in growing rounds only
  }
  if (epoch_start_ == kTimeNever) {
    reset_epoch();
    return;
  }
  // One decision per smoothed round-trip of elapsed time, provided at
  // least one clean RTT sample arrived in the round.
  const auto& est = rto_estimator();
  if (!est.has_sample()) return;
  const Time epoch_len = now() - epoch_start_;
  if (epoch_len >= est.srtt() && epoch_rtt_cnt_ > 0) {
    per_rtt_decision(epoch_len);
    reset_epoch();
  }
}

void TcpVegas::loss_retransmit() {
  ++stats_.fast_retransmits;
  last_fine_rexmit_ = snd_una();
  retransmit_una();
  in_ss_ = false;
  // Window reduction at most once per round-trip (Brakmo), and gentler
  // than Reno: 3/4 rather than 1/2.
  const auto& est = rto_estimator();
  const Time rtt_guard = est.has_sample() ? est.srtt() : 0.0;
  if (last_cut_ < 0.0 || now() - last_cut_ > rtt_guard) {
    set_cwnd(std::max(2.0, cwnd() * 0.75));
    last_cut_ = now();
  }
  set_ssthresh(2.0);
  restart_rto_timer();
}

void TcpVegas::on_dup_ack() {
  // Fine-grained check: even on the first or second dup ACK, retransmit
  // if the oldest outstanding packet has exceeded srtt + 4*rttvar. A hole
  // is resent at most once per loss detection (Brakmo): without the
  // last_fine_rexmit_ guard, slow dup ACKs re-expire the just-resent
  // head and the first *and* second dup ACK both retransmit it.
  if (snd_una() == last_fine_rexmit_) return;
  if (dupacks() >= kDupAckThreshold ||
      (una_expired() && dupacks() <= 2)) {
    // Re-retransmitting the same hole on every later dup ACK would flood
    // the path; only act on the threshold crossing or the early check.
    if (dupacks() == kDupAckThreshold || dupacks() <= 2) {
      loss_retransmit();
    }
  }
}

void TcpVegas::on_ecn_echo() {
  // Vegas's gentler multiplicative decrease applies to marks too.
  in_ss_ = false;
  set_cwnd(std::max(2.0, cwnd() * 0.75));
  set_ssthresh(2.0);
  ++stats_.ecn_reductions;
}

void TcpVegas::on_timeout_window() {
  last_cut_ = now();
  in_ss_ = true;
  ss_grow_round_ = true;
  epoch_start_ = kTimeNever;
  epoch_rtt_cnt_ = 0;
  last_fine_rexmit_ = -1;  // go-back-N resends the head; re-arm the check
  set_cwnd(2.0);
}

}  // namespace burst
