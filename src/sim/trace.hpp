// Lightweight tracing: named (time, value) streams, such as a flow's
// congestion window read from the event trace (TraceSink::cwnd_series),
// to dump or analyze.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "src/sim/time.hpp"

namespace burst {

/// One sampled series, e.g. the congestion window of flow 7.
class TraceSeries {
 public:
  explicit TraceSeries(std::string name) : name_(std::move(name)) {}

  void record(Time t, double value) { points_.emplace_back(t, value); }

  const std::string& name() const { return name_; }
  const std::vector<std::pair<Time, double>>& points() const {
    return points_;
  }
  bool empty() const { return points_.empty(); }

  /// Last value at or before @p t, or @p fallback if none.
  double value_at(Time t, double fallback = 0.0) const;

 private:
  std::string name_;
  std::vector<std::pair<Time, double>> points_;
};

}  // namespace burst
