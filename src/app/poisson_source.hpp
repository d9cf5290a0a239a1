// Poisson packet source: single packets with exponentially distributed
// inter-generation times (Table 1: mean 0.1 s). This is the paper's
// application workload; its aggregate is provably smooth, so any residual
// burstiness at the gateway is the transport's doing.
//
// A source only calls its agent's app_send() on its arrival process; the
// transport below then modulates (or, for UDP, does not modulate) what
// reaches the network. The paper's method rests on that split, which the
// other sources (bulk_source.hpp, pareto_on_off_source.hpp) keep too.
#pragma once

#include <cstdint>

#include "src/obs/trace.hpp"
#include "src/sim/random.hpp"
#include "src/sim/simulator.hpp"
#include "src/transport/agent.hpp"

namespace burst {

class PoissonSource {
 public:
  /// @p mean_interarrival is 1/lambda in seconds.
  PoissonSource(Simulator& sim, Agent& agent, double mean_interarrival,
                Random rng);

  /// Begins generating at the current simulation time.
  void start();
  /// Stops generating (pending transport backlogs still drain).
  void stop();
  /// Application packets generated so far.
  std::uint64_t generated() const { return generated_; }

  /// Emits a kSourceEmit record per generated packet under @p flow.
  void set_trace(TraceSink* sink, std::int32_t flow) {
    trace_ = sink;
    trace_flow_ = flow;
  }

 private:
  void schedule_next();

  TraceSink* trace_ = nullptr;
  std::int32_t trace_flow_ = -1;

  Simulator& sim_;
  Agent& agent_;
  double mean_;
  Random rng_;
  bool running_ = false;
  EventId next_event_ = kInvalidEventId;
  std::uint64_t generated_ = 0;
};

}  // namespace burst
