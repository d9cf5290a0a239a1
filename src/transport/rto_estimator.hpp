// Jacobson/Karels retransmission-timeout estimation with Karn-style
// exponential backoff and a coarse clock, as in BSD/ns-2 era stacks.
//
// The paper's timeout dynamics (Fig 13) depend on the timer being coarse:
// the RTO is rounded up to the measurement granularity and clamped to a
// minimum that is large relative to the 80 ms propagation RTT.
#pragma once

#include "src/sim/time.hpp"

namespace burst {

struct RtoConfig {
  Time granularity = 0.1;  // clock tick the RTO is rounded up to (ns tcpTick_)
  Time min_rto = 0.2;      // coarse lower bound (2 ticks, as in ns-2)
  Time max_rto = 64.0;
  Time initial_rto = 3.0;  // before the first RTT sample
};

class RtoEstimator {
 public:
  explicit RtoEstimator(RtoConfig cfg = {}) : cfg_(cfg) {}

  /// Feeds one RTT measurement (from a non-retransmitted segment only —
  /// Karn's rule; callers enforce that).
  void sample(Time rtt);

  /// Current timeout including backoff.
  Time rto() const;

  /// Doubles the timeout after a retransmission (Karn).
  void backoff();

  /// Clears backoff once an ACK for new data arrives.
  void reset_backoff() { backoff_ = 1; }

  bool has_sample() const { return has_sample_; }
  Time srtt() const { return srtt_; }
  Time rttvar() const { return rttvar_; }
  int backoff_factor() const { return backoff_; }

 private:
  RtoConfig cfg_;
  Time srtt_ = 0.0;
  Time rttvar_ = 0.0;
  bool has_sample_ = false;
  int backoff_ = 1;
};

}  // namespace burst
