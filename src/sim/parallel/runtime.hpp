// Conservative parallel DES runtime: one Simulator per logical process,
// synchronized by a YAWNS-style window barrier (DESIGN.md §13).
//
// Window protocol (every LP thread runs this loop in lockstep):
//
//   1. publish  lb[i] = my earliest pending event time
//      -- barrier --
//   2. gmin = min over all lb; if gmin > horizon, stop.
//      safe = gmin + lookahead            (lookahead = min cut-link prop)
//   3. run local events with time < safe (and <= horizon)
//      -- barrier --
//   4. take my inbound outboxes, sort the handoffs by their RemoteKey,
//      then outbox creation order, then producer execution order, park
//      each packet in its cut link's in-flight FIFO and insert its
//      delivery as a local event
//
// Safety: every cross-LP message a window generates carries
// deliver_at = (dequeue + tx) + prop >= gmin + prop >= gmin + lookahead
// = safe (IEEE addition is monotone, so the inequality survives floating
// point), and step 3 runs strictly BELOW safe — so no LP can ever receive
// a message in its past. Progress: the event at gmin itself satisfies
// gmin < safe, so at least one LP advances every window; simulated time
// advances by at least `lookahead` per busy window, bounding the barrier
// count by duration / lookahead (hundreds, for the 20 ms dumbbell cuts).
//
// Handoffs: one plain outbox vector per ordered (producer, consumer) LP
// pair. The producer dequeues each packet straight into an outbox slot
// in step 3 and the consumer empties the outbox in step 4; the barriers
// between those steps order every access, so the barrier's mutex is the
// only synchronization an outbox needs. A cut link's in-flight FIFO is
// the consumer's alone: only its merge pushes and only its delivery
// events pop, so the producer never touches it.
//
// Determinism: all three inputs to the merge order — the window edges
// (pure function of event timestamps), each outbox's order (producer
// execution order, single-threaded), and the order the outboxes were
// created in (build order) — are independent of thread scheduling, so a
// given (scenario, shard count) replays bit-identically. shards == 1
// never constructs this class at all: the sequential engine is untouched.
//
// RNG fork discipline per LP: every LP's Simulator owns a Random seeded
// with the scenario seed, but ONLY LP 0's is drawn from — the topology
// builder forks all per-component streams (queue disciplines, Poisson
// sources) from build_rng() in the same global declaration order the
// sequential build uses, so every component receives a value-identical
// stream regardless of which LP hosts it. The other LPs' generators stay
// untouched so seeds remain value-keyed: nothing about thread placement
// ever feeds a random stream.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/net/link.hpp"
#include "src/sim/parallel/barrier.hpp"
#include "src/sim/parallel/lp_stats.hpp"
#include "src/sim/simulator.hpp"

namespace burst {

class ParallelRuntime {
 public:
  /// @p shards >= 2 LPs, each with a Simulator seeded @p seed; @p
  /// lookahead must be the minimum propagation delay over all cut links
  /// (see make_lp_partition).
  ParallelRuntime(int shards, Time lookahead, std::uint64_t seed);
  ParallelRuntime(const ParallelRuntime&) = delete;
  ParallelRuntime& operator=(const ParallelRuntime&) = delete;
  ~ParallelRuntime();

  int shards() const { return static_cast<int>(lps_.size()); }

  Simulator& sim(int lp) { return lps_[static_cast<std::size_t>(lp)]->sim; }

  /// The generator every build-time fork must come from (LP 0's), so the
  /// fork order — and with it every component's stream — matches the
  /// sequential build exactly.
  Random& build_rng() { return sim(0).rng(); }

  /// Wires @p link as a cut edge from @p from_lp to @p to_lp. Build-time
  /// (single-threaded) only; outboxes are created per ordered LP pair in
  /// first-registration order.
  void register_cut_link(SimplexLink* link, int from_lp, int to_lp);

  /// Runs all LPs to the horizon (inclusive, like Simulator::run). The
  /// calling thread drives LP 0; shards-1 worker threads are spawned for
  /// the rest and joined before returning. Call at most once.
  void run(Time until);

  const std::vector<LpStats>& stats() const { return stats_; }
  std::uint64_t total_events() const;
  std::uint64_t total_scheduled() const;
  std::uint64_t max_peak_pending() const;

  /// Opt-in per-window timeline (one LpWindowSample per window per LP).
  /// Costs a few stores per window, so it is off unless a run wants the
  /// runtime Perfetto track. Call before run().
  void enable_window_log() { log_windows_ = true; }
  const std::vector<std::vector<LpWindowSample>>& window_log() const {
    return window_log_;
  }

 private:
  /// Every handoff from one LP to another, in the producer's execution
  /// order. The producer appends in its run phase; the consumer takes the
  /// whole outbox in its merge phase.
  struct Outbox {
    explicit Outbox(int from) : from_lp(from) {}
    const int from_lp;
    std::vector<RemoteEvent> events;
    std::uint64_t taken = 0;  // consumer-only: handoffs merged so far
  };
  struct Lp {
    explicit Lp(std::uint64_t seed) : sim(seed) {}
    Simulator sim;
    std::vector<std::unique_ptr<Outbox>> in;  // inbound, in creation order
  };
  /// One taken handoff plus its position in the concatenation of the
  /// consumer's inbound outboxes: the merge sort's last tie-break.
  struct Staged {
    const RemoteEvent* e;
    std::size_t pos;
  };

  void lp_main(int id, Time until);
  /// Returns the number of messages staged (merged in) this window.
  std::size_t merge_inbound(int id);

  const Time lookahead_;
  std::vector<std::unique_ptr<Lp>> lps_;
  std::vector<LpStats> stats_;
  /// Published lower bounds, one slot per LP. Written by the owner before
  /// the publish barrier, read by everyone after it; the barrier provides
  /// the happens-before edges, so plain Time is race-free here.
  std::vector<Time> lower_bounds_;
  PhaseBarrier barrier_;
  std::vector<std::vector<Staged>> staged_;  // per-LP merge scratch
  bool log_windows_ = false;
  double run_epoch_s_ = 0.0;  // wall clock at run() entry (window offsets)
  std::vector<std::vector<LpWindowSample>> window_log_;  // per LP
};

}  // namespace burst
