#include "src/transport/tcp_sender.hpp"

#include <algorithm>
#include <cmath>

namespace burst {

TcpSender::TcpSender(Simulator& sim, Node& node, FlowId flow, NodeId peer,
                     TcpConfig cfg)
    : Agent(sim, node, flow, peer),
      cfg_(cfg),
      ssthresh_(cfg.initial_ssthresh),
      estimator_(cfg.rto),
      // Every ACK pushes the RTO deadline forward: a soft-deadline move,
      // a field write with no scheduler traffic.
      rto_timer_(sim, [this] { on_rto(); }) {}

void TcpSender::notify(TcpSenderEvent::Kind kind, std::int64_t seq,
                       bool retransmit) {
  if (!observer_) return;
  TcpSenderEvent e;
  e.kind = kind;
  e.time = sim_.now();
  e.seq = seq;
  e.retransmit = retransmit;
  e.cwnd = cwnd();
  e.ssthresh = ssthresh();
  e.snd_una = snd_una();
  e.snd_nxt = snd_nxt();
  e.flight = flight();
  e.dupacks = dupacks();
  e.rtt_samples = stats_.rtt_samples;
  e.state = cc_state();
  observer_->on_sender_event(e);
}

void TcpSender::app_send(int packets) {
  stats_.app_packets += static_cast<std::uint64_t>(packets);
  app_total_ += packets;
  try_send();
}

double TcpSender::effective_window() const {
  return std::max(1.0, std::min(std::floor(cwnd()), cfg_.advertised_window));
}

bool TcpSender::window_limited() const {
  // "Using the window" = the in-flight data is within one packet of it.
  return static_cast<double>(flight()) + 1.0 >= effective_window();
}

void TcpSender::standard_growth() {
  if (cfg_.cwnd_validation && !window_limited()) return;
  if (cwnd() < ssthresh()) {
    set_cwnd(cwnd() + 1.0);  // slow start: one packet per ACK
  } else {
    set_cwnd(cwnd() + 1.0 / cwnd());  // congestion avoidance
  }
}

void TcpSender::try_send() {
  while (snd_nxt_ < app_total_ &&
         static_cast<double>(flight()) < effective_window()) {
    send_seq(snd_nxt_);
    ++snd_nxt_;
  }
}

void TcpSender::send_seq(std::int64_t seq) {
  Packet p;
  p.uid = next_uid();
  p.type = PacketType::kData;
  p.size_bytes = cfg_.payload_bytes + kHeaderBytes;
  p.seq = seq;
  p.ts_echo = sim_.now();
  p.retransmit = seq < snd_max();
  p.ecn_capable = cfg_.ecn;
  sent_.record(seq, sim_.now());

  ++stats_.data_pkts_sent;
  if (p.retransmit) ++stats_.retransmits;
  transmit(p);
  if (!rto_timer_.pending()) rto_timer_.schedule(estimator_.rto());
  notify(TcpSenderEvent::Kind::kSend, seq, p.retransmit);
}

void TcpSender::retransmit_una() { send_seq(snd_una()); }

void TcpSender::send_segment(std::int64_t seq) { send_seq(seq); }

bool TcpSender::send_new_segment() {
  if (snd_nxt_ >= app_total_) return false;
  send_seq(snd_nxt_);
  ++snd_nxt_;
  return true;
}

void TcpSender::restart_rto_timer() { rto_timer_.schedule(estimator_.rto()); }

void TcpSender::on_ecn_echo() {
  // Default (RFC 2481 / Reno-style): a congestion echo is treated like a
  // fast-retransmit loss signal, except nothing needs retransmitting.
  set_ssthresh(std::max(cwnd() / 2.0, 2.0));
  set_cwnd(ssthresh());
  ++stats_.ecn_reductions;
}

void TcpSender::handle(const Packet& p) {
  if (p.type != PacketType::kAck) return;

  on_ack_info(p);

  if (p.ece) {
    ++stats_.ecn_echoes;
    // At most one window reduction per round-trip (like one loss event).
    const Time guard = estimator_.has_sample() ? estimator_.srtt() : 0.1;
    if (last_ecn_cut_ < 0.0 || sim_.now() - last_ecn_cut_ > guard) {
      last_ecn_cut_ = sim_.now();
      on_ecn_echo();
      notify(TcpSenderEvent::Kind::kEcnEcho, p.ack, false);
    }
  }

  if (p.ack > snd_una()) {
    const std::int64_t acked = p.ack - snd_una();
    sent_.ack(p.ack);
    snd_nxt_ = std::max(snd_nxt_, snd_una());
    ++stats_.new_acks;
    dupacks_ = 0;

    // Karn's rule: only segments never retransmitted yield RTT samples.
    if (!p.retransmit) {
      const Time rtt = sim_.now() - p.ts_echo;
      estimator_.sample(rtt);
      ++stats_.rtt_samples;
      on_rtt_sample(rtt);
    }
    estimator_.reset_backoff();

    on_new_ack(acked, p.ack);

    if (snd_una() == snd_nxt() && backlog() == 0) {
      rto_timer_.cancel();
    } else {
      restart_rto_timer();
    }
    notify(TcpSenderEvent::Kind::kNewAck, p.ack, false);
    try_send();
    return;
  }

  if (p.ack == snd_una() && flight() > 0) {
    ++dupacks_;
    ++stats_.dupacks;
    if (cfg_.limited_transmit && dupacks() <= 2 &&
        static_cast<double>(flight()) <
            std::min(cwnd(), cfg_.advertised_window) + 2.0) {
      send_new_segment();  // RFC 3042: keep the dup-ACK clock alive
    }
    on_dup_ack();
    notify(TcpSenderEvent::Kind::kDupAck, snd_una(), false);
    try_send();  // recovery inflation may have opened the window
  }
}

void TcpSender::on_rto() {
  ++stats_.timeouts;
  estimator_.backoff();
  // Multiplicative decrease of the threshold, computed before the rewind.
  set_ssthresh(std::max(static_cast<double>(flight()) / 2.0, 2.0));
  dupacks_ = 0;
  snd_nxt_ = snd_una();  // go-back-N recovery from the hole
  on_timeout_window();
  rto_timer_.schedule(estimator_.rto());
  notify(TcpSenderEvent::Kind::kRto, snd_una(), false);
  try_send();
}

}  // namespace burst
