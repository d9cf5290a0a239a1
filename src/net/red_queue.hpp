// Random Early Detection gateway queue (Floyd & Jacobson, 1993), the
// variant the paper evaluates: non-gentle, packet-count mode.
//
//  * An EWMA `avg` of the instantaneous queue length is updated on every
//    arrival; when the queue is idle the average decays as if `m` small
//    packets had been transmitted (idle-time compensation).
//  * avg < min_th          : enqueue.
//  * min_th <= avg < max_th: drop with probability pa, where
//        pb = max_p * (avg - min_th) / (max_th - min_th)
//        pa = pb / (1 - count * pb)
//    and `count` is the number of packets enqueued since the last drop,
//    *excluding* the arriving packet itself: the first candidate after a
//    drop sees pa = pb, and for fixed avg the gap between drops is
//    uniform on {1, ..., 1/pb} — the de-clustering property RED's
//    uniformization is for.
//  * avg >= max_th         : drop every arrival (non-gentle RED).
//  * The physical buffer bound still applies (forced drop when full).
#pragma once

#include "src/net/packet_fifo.hpp"
#include "src/net/queue.hpp"
#include "src/sim/random.hpp"

namespace burst {

struct RedConfig {
  double min_th = 10.0;          // packets
  double max_th = 40.0;          // packets
  double max_p = 0.1;            // drop probability at max_th
  double weight = 0.002;         // EWMA gain w_q
  std::size_t capacity = 50;     // physical buffer bound B
  double mean_pkt_tx_time = 0.0; // seconds; enables idle-time compensation

  // ECN (RFC 2481): mark ECN-capable packets instead of early-dropping
  // them while avg < max_th. Forced (buffer-full) and max_th drops still
  // drop — marking cannot create space.
  bool ecn = false;

  // Self-configuring RED (Feng, Kandlur, Saha & Shin — the paper's [5]):
  // periodically scale max_p so the average queue settles between the
  // thresholds. Off by default (the paper's RED is static).
  bool adaptive = false;
  Time adapt_interval = 0.5;
  double adapt_factor = 2.0;     // multiplicative max_p adjustment
  double min_max_p = 0.01;
  double max_max_p = 0.5;
};

class RedQueue : public Queue {
 public:
  RedQueue(RedConfig cfg, Random rng)
      : cfg_(cfg), rng_(rng), max_p_(cfg.max_p) {}

  bool dequeue(Time now, Packet& out) override;
  std::size_t len() const override { return q_.size(); }

  /// Current EWMA of the queue length (exposed for tests/analysis).
  double avg() const { return avg_; }
  const RedConfig& config() const { return cfg_; }
  /// Current max_p (changes over time in adaptive mode).
  double max_p() const { return max_p_; }
  /// Packets ECN-marked (instead of dropped) so far.
  std::uint64_t marks() const { return marks_; }

  /// The uniformized drop probability pa = pb / (1 - count * pb) for an
  /// arrival seen while the EWMA is @p avg, with @p count packets enqueued
  /// since the last drop (the arriving packet itself excluded; negative
  /// values clamp to 0). Exposed so tests can pin the Floyd–Jacobson
  /// sequence against hand-computed values.
  double drop_probability(double avg, std::int64_t count) const;

 protected:
  bool do_enqueue(const Packet& p, Time now) override;

 private:
  void update_avg(Time now);
  void maybe_adapt(Time now);

  RedConfig cfg_;
  Random rng_;
  PacketFifo q_;
  double avg_ = 0.0;
  double max_p_;             // live value; cfg_.max_p is the initial one
  std::uint64_t marks_ = 0;
  std::int64_t count_ = -1;  // packets since last drop; -1 = fresh phase
  Time idle_since_ = 0.0;    // when the queue last went empty
  bool idle_ = true;
  Time last_adapt_ = 0.0;
};

}  // namespace burst
