// Client-count sweeps over protocol/queue configurations: the shape of
// Figures 2, 3, 4 and 13, which all plot a metric against the number of
// clients for each transport variant. run_campaign (src/run/campaign.hpp)
// runs them.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/core/experiment.hpp"
#include "src/core/scenario.hpp"

namespace burst {

/// A named configuration: how to derive a scenario from the paper default.
struct SweepConfig {
  std::string name;
  std::function<void(Scenario&)> apply;
};

/// The paper's Fig 2 protocol set, in plot order: UDP, Reno, Reno/RED,
/// Vegas, Vegas/RED, Reno/DelayAck.
std::vector<SweepConfig> paper_protocol_set(bool include_udp = true);

struct SweepPoint {
  int num_clients = 0;
  ExperimentResult result;
};

struct SweepSeries {
  std::string name;
  std::vector<SweepPoint> points;
};

/// Convenience: inclusive integer range with stride.
std::vector<int> range(int lo, int hi, int step = 1);

}  // namespace burst
