// Bulk-transfer source: submits a fixed number of packets at start (a file
// transfer) or an effectively infinite backlog (a greedy flow). Used by
// the Earth-System-Grid-style example and fairness experiments.
#pragma once

#include <cstdint>

#include "src/sim/simulator.hpp"
#include "src/transport/agent.hpp"

namespace burst {

class BulkSource {
 public:
  /// @p packets <= 0 means "greedy": keep the transport saturated.
  BulkSource(Simulator& sim, Agent& agent, std::int64_t packets);

  /// Begins generating at the current simulation time.
  void start();
  /// Application packets generated so far.
  std::uint64_t generated() const { return generated_; }

 private:
  Simulator& sim_;
  Agent& agent_;
  std::int64_t packets_;
  std::uint64_t generated_ = 0;
};

}  // namespace burst
