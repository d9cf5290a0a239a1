// Pareto on/off source: heavy-tailed burst and idle durations.
//
// The self-similarity literature the paper responds to ([14],[19]) shows
// that aggregating many such sources yields long-range-dependent traffic.
// We include it so the ablation benches can contrast "burstiness from
// heavy tails" (this source) with "burstiness from TCP modulation of
// smooth sources" (PoissonSource + TCP), which is the paper's point.
#pragma once

#include <cstdint>

#include "src/sim/random.hpp"
#include "src/sim/simulator.hpp"
#include "src/transport/agent.hpp"

namespace burst {

struct ParetoOnOffConfig {
  double shape = 1.5;           // alpha in (1,2): infinite variance
  double mean_on = 0.5;         // seconds
  double mean_off = 0.5;        // seconds
  double on_rate_pps = 20.0;    // packet rate during bursts
};

class ParetoOnOffSource {
 public:
  ParetoOnOffSource(Simulator& sim, Agent& agent, ParetoOnOffConfig cfg,
                    Random rng);

  /// Begins generating at the current simulation time.
  void start();
  /// Stops generating (pending transport backlogs still drain).
  void stop();
  /// Application packets generated so far.
  std::uint64_t generated() const { return generated_; }

  /// ON periods that have run to completion (reached their sampled end).
  std::uint64_t completed_on_periods() const { return completed_on_periods_; }

  /// Mean realized ON-period duration, or 0 if none completed. The OFF
  /// transition fires at the sampled end exactly, so this converges to
  /// the Pareto mean cfg_.mean_on (regression-tested in sources_test).
  double mean_on_duration() const {
    return completed_on_periods_ == 0
               ? 0.0
               : total_on_time_ / static_cast<double>(completed_on_periods_);
  }

 private:
  void begin_on_period();
  void begin_off_period();
  void tick();

  Simulator& sim_;
  Agent& agent_;
  ParetoOnOffConfig cfg_;
  Random rng_;
  bool running_ = false;
  bool on_ = false;
  Time on_ends_ = 0.0;
  Time on_began_ = 0.0;
  double total_on_time_ = 0.0;
  std::uint64_t completed_on_periods_ = 0;
  EventId next_event_ = kInvalidEventId;
  std::uint64_t generated_ = 0;
};

}  // namespace burst
