#include "src/transport/rto_estimator.hpp"

#include <algorithm>
#include <cmath>

namespace burst {

void RtoEstimator::sample(Time rtt) {
  if (!has_sample_) {
    srtt_ = rtt;
    rttvar_ = rtt / 2.0;
    has_sample_ = true;
    return;
  }
  // RFC 6298 gains: beta = 1/4, alpha = 1/8 (variance updated first).
  rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - rtt);
  srtt_ = 0.875 * srtt_ + 0.125 * rtt;
}

Time RtoEstimator::rto() const {
  Time base = has_sample_ ? srtt_ + 4.0 * rttvar_ : cfg_.initial_rto;
  if (cfg_.granularity > 0.0) {
    base = std::ceil(base / cfg_.granularity) * cfg_.granularity;
  }
  base = std::clamp(base, cfg_.min_rto, cfg_.max_rto);
  return std::min(base * backoff_, cfg_.max_rto);
}

void RtoEstimator::backoff() { backoff_ = std::min(backoff_ * 2, 64); }

}  // namespace burst
