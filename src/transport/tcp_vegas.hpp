// TCP Vegas (Brakmo & Peterson, 1995): proactive congestion avoidance.
//
// Once per round-trip Vegas compares the Expected throughput (cwnd /
// baseRTT) with the Actual throughput — packets *delivered* (cumulatively
// acknowledged) over the last round-trip divided by its duration. The
// difference, scaled by baseRTT, estimates how many of this stream's
// packets sit queued in the gateway (for a fully utilized window it
// reduces to the familiar cwnd * (RTT - baseRTT) / RTT):
//
//     diff = (Expected - Actual) * baseRTT
//
//   diff < alpha  -> linear increase (too little data in the pipe)
//   diff > beta   -> linear decrease (queue building up)
//   otherwise     -> hold (the equilibrium the paper credits for Vegas's
//                    smooth aggregate traffic, Figs 10-12)
//
// Using the *measured* Actual matters for the paper's workload: a Poisson
// application often leaves the window under-used, and cwnd-derived
// "actual" estimates would let the window balloon far beyond what the
// flow uses, re-creating Reno-style bursts. Actual counts delivered
// packets, not transmissions: counting retransmissions would inflate
// Actual during loss episodes and defer the very decrease the episode
// calls for (Brakmo's diff is defined on useful throughput).
//
// Slow start doubles only every *other* RTT and ends when diff exceeds
// gamma. Loss recovery uses Reno-style fast retransmit plus Vegas's
// fine-grained check (retransmit on an early dup ACK if the oldest
// outstanding packet has exceeded the fine-grained timeout), with a 3/4
// window cut rather than 1/2.
#pragma once

#include "src/obs/trace.hpp"
#include "src/transport/tcp_sender.hpp"

namespace burst {

struct VegasConfig {
  double alpha = 1.0;  // Table 1: TCP Vegas / 1
  double beta = 3.0;   // Table 1: TCP Vegas / 3
  double gamma = 1.0;  // Table 1: TCP Vegas / 1
};

class TcpVegas : public TcpSender {
 public:
  TcpVegas(Simulator& sim, Node& node, FlowId flow, NodeId peer,
           TcpConfig cfg = {}, VegasConfig vegas = {});

  double base_rtt() const { return base_rtt_; }
  bool in_slow_start() const { return in_ss_; }
  /// Last computed diff (queued-packet estimate), for tests/analysis.
  double last_diff() const { return last_diff_; }

  /// If set, every per-RTT Diff decision is emitted as a kVegasDiff trace
  /// record (value = diff, aux = cwnd after the decision).
  void set_vegas_trace(TraceSink* sink) { vegas_trace_ = sink; }

  std::string_view cc_state() const override {
    return in_ss_ ? "vegas-ss" : "vegas-ca";
  }

 protected:
  void on_new_ack(std::int64_t acked, std::int64_t ack_seq) override;
  void on_dup_ack() override;
  void on_timeout_window() override;
  void on_rtt_sample(Time rtt) override;
  void on_ecn_echo() override;

 private:
  void per_rtt_decision(Time epoch_len);
  void reset_epoch();
  /// Fine-grained timeout for the oldest outstanding packet.
  bool una_expired() const;
  /// Retransmits the hole; cuts the window at most once per RTT.
  void loss_retransmit();

  VegasConfig vegas_;
  double base_rtt_ = kTimeNever;
  // Per-round bookkeeping: a decision fires once per smoothed round-trip
  // of wall-clock (simulated) time.
  Time epoch_start_ = kTimeNever;
  std::int64_t epoch_una_start_ = 0;  // snd_una at epoch start (delivered)
  int epoch_rtt_cnt_ = 0;
  bool in_ss_ = true;
  bool ss_grow_round_ = true;  // doubling happens every other round
  Time last_cut_ = -1.0;       // time of the last window reduction
  double last_diff_ = 0.0;
  // Head-of-window sequence already resent by the fine-grained check;
  // guards against retransmitting the same hole on both early dup ACKs.
  std::int64_t last_fine_rexmit_ = -1;
  TraceSink* vegas_trace_ = nullptr;
};

}  // namespace burst
