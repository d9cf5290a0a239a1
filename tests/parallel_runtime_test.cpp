// Conservative parallel engine (src/sim/parallel, DESIGN.md §13).
//
// Test names all start with Parallel* on purpose: the sanitize CI job's
// TSan step filters on that prefix to sweep the LP runtime, channels and
// barrier under ThreadSanitizer.
//
// The load-bearing guarantees checked here:
//   * SpscChannel preserves producer order and survives ring overflow.
//   * make_lp_partition cuts the dumbbell along its natural seams with
//     the documented lookahead, and degrades to sequential when it must.
//   * An lp>1 run of a dumbbell scenario reproduces the sequential run's
//     packet-timing metrics, analytic Poisson reference, metric names and
//     *exact* event count (the remote delivery event replaces the
//     producer's fused local one 1:1).
//   * An lp=2 run is bit-identical run-to-run (pinned hash): the merge
//     order is a pure function of message keys, never thread timing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/experiment.hpp"
#include "src/net/drop_tail_queue.hpp"
#include "src/net/link.hpp"
#include "src/obs/trace.hpp"
#include "src/run/scenario_key.hpp"
#include "src/sim/parallel/barrier.hpp"
#include "src/sim/parallel/spsc_channel.hpp"
#include "src/sim/simulator.hpp"
#include "src/topo/partition.hpp"
#include "src/topo/spec.hpp"

namespace burst {
namespace {

// ---------------------------------------------------------------------
// SpscChannel

TEST(ParallelChannel, PreservesProducerOrderAcrossOverflow) {
  Simulator sim(1);
  SimplexLink link(sim, std::make_unique<DropTailQueue>(4), 1e6, 0.001);
  SpscChannel chan(/*id=*/0, /*from_lp=*/0, /*to_lp=*/1);

  // 3x the ring capacity: the tail 2/3 must take the overflow lane.
  const std::uint64_t n = 3 * SpscChannel::kCapacity;
  for (std::uint64_t i = 0; i < n; ++i) {
    Packet p;
    p.uid = i;
    const Time t = static_cast<Time>(i);
    chan.post(link, RemoteKey{/*at=*/t, /*tie_time=*/t, /*tx_start=*/t,
                              /*cause=*/0.0, /*chain_start=*/t,
                              /*chain_cause=*/0.0},
              p);
  }
  EXPECT_EQ(chan.posted(), n);

  std::vector<RemoteEvent> got;
  chan.drain([&](const RemoteEvent& e) { got.push_back(e); });
  ASSERT_EQ(got.size(), n);
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i].seq, i);
    EXPECT_EQ(got[i].pkt.uid, i);
    EXPECT_EQ(got[i].link, &link);
  }

  // Drained channel is empty and the ring is reusable.
  int extra = 0;
  chan.drain([&](const RemoteEvent&) { ++extra; });
  EXPECT_EQ(extra, 0);
  Packet p;
  p.uid = 999;
  chan.post(link, RemoteKey{1.0, 1.0, 1.0, 0.0, 1.0, 0.0}, p);
  chan.drain([&](const RemoteEvent& e) {
    EXPECT_EQ(e.pkt.uid, 999u);
    EXPECT_EQ(e.seq, n);  // per-channel seq keeps counting across drains
    ++extra;
  });
  EXPECT_EQ(extra, 1);
}

TEST(ParallelChannel, ConcurrentPostAndDrainKeepOrder) {
  // The ring's atomics must let a live producer and consumer run
  // concurrently (the protocol only phase-separates the overflow lane).
  Simulator sim(1);
  SimplexLink link(sim, std::make_unique<DropTailQueue>(4), 1e6, 0.001);
  SpscChannel chan(0, 0, 1);
  constexpr std::uint64_t kMsgs = 200000;

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kMsgs; ++i) {
      Packet p;
      p.uid = i;
      // Stay within the ring so both sides touch only the atomics: spin
      // until the consumer frees a slot. (Real LPs never block — they
      // spill to overflow — but this test targets the lock-free path.)
      while (chan.ring_full()) std::this_thread::yield();
      chan.post(link, RemoteKey{0.0, 0.0, 0.0, 0.0, 0.0, 0.0}, p);
    }
  });
  std::uint64_t next = 0;
  while (next < kMsgs) {
    chan.drain([&](const RemoteEvent& e) {
      EXPECT_EQ(e.pkt.uid, next);
      ++next;
    });
  }
  producer.join();
  EXPECT_EQ(next, kMsgs);
}

// ---------------------------------------------------------------------
// PhaseBarrier

TEST(ParallelBarrier, SynchronizesPhases) {
  constexpr int kParties = 4;
  constexpr int kRounds = 100;
  PhaseBarrier barrier(kParties);
  EXPECT_EQ(barrier.parties(), kParties);

  // Each thread increments its phase counter between barriers; at no
  // barrier crossing may two threads disagree by more than one phase,
  // and after the run all counters are equal.
  std::vector<int> phase(kParties, 0);
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int t = 0; t < kParties; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        phase[static_cast<std::size_t>(t)] = r;
        barrier.arrive_and_wait();
        for (int u = 0; u < kParties; ++u) {
          if (phase[static_cast<std::size_t>(u)] != r) ok = false;
        }
        barrier.arrive_and_wait();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_TRUE(ok.load());
}

// ---------------------------------------------------------------------
// Partitioner

TEST(ParallelPartition, DumbbellTwoWaySplit) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 10;
  const TopoSpec spec = make_dumbbell_spec(sc);
  const LpPartition part = make_lp_partition(spec, 2);
  ASSERT_EQ(part.shards, 2);
  for (int c = 0; c < sc.num_clients; ++c) EXPECT_EQ(part.lp_of(c), 0);
  EXPECT_EQ(part.lp_of(sc.num_clients), 1);      // gateway
  EXPECT_EQ(part.lp_of(sc.num_clients + 1), 1);  // server
  // Cut = both directions of every client edge; lookahead = client delay.
  EXPECT_EQ(part.cut_links, 2 * sc.num_clients);
  EXPECT_DOUBLE_EQ(part.lookahead, sc.client_delay);
}

TEST(ParallelPartition, DumbbellFourWaySplit) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 10;
  sc.client_delay_spread = 0.5;
  const TopoSpec spec = make_dumbbell_spec(sc);
  const LpPartition part = make_lp_partition(spec, 4);
  ASSERT_EQ(part.shards, 4);
  // Clients split into two contiguous shards; gateway and server get
  // their own LPs.
  for (int c = 0; c < 5; ++c) EXPECT_EQ(part.lp_of(c), 0);
  for (int c = 5; c < 10; ++c) EXPECT_EQ(part.lp_of(c), 1);
  EXPECT_EQ(part.lp_of(10), 2);
  EXPECT_EQ(part.lp_of(11), 3);
  // Client edges AND both bottleneck directions now cross the cut.
  EXPECT_EQ(part.cut_links, 2 * sc.num_clients + 2);
  // Spread shifts the fastest client edge to delay*(1-spread): the
  // lookahead is exactly that expanded member link's delay, the one the
  // builder gives the link.
  const TopoGraph graph(spec);
  EXPECT_EQ(part.lookahead, graph.links()[graph.first_member(2)].delay);
  EXPECT_EQ(part.lookahead, sc.client_delay_for(0));
  EXPECT_LT(part.lookahead, sc.client_delay);
}

TEST(ParallelPartition, ClampsAndFallsBack) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 2;
  const TopoSpec spec = make_dumbbell_spec(sc);

  // requested <= 1 is the sequential partition.
  EXPECT_EQ(make_lp_partition(spec, 1).shards, 1);

  // More source shards than source nodes: clamps, still runs parallel.
  const LpPartition big = make_lp_partition(spec, 8);
  EXPECT_EQ(big.shards, 4);  // 2 client shards + gateway + server
  EXPECT_FALSE(big.note.empty());

  // A zero-delay cut link has no lookahead: must fall back to sequential.
  Scenario zero = Scenario::paper_default();
  zero.num_clients = 4;
  zero.client_delay = 0.0;
  const LpPartition z = make_lp_partition(make_dumbbell_spec(zero), 2);
  EXPECT_EQ(z.shards, 1);
  EXPECT_FALSE(z.note.empty());
}

// ---------------------------------------------------------------------
// Equivalence and determinism of full runs

void append_double(std::ostringstream& os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  os << buf << ';';
}

// Canonical rendering of every packet-timing-derived result field (the
// result_identity_test canon, minus cwnd traces — traced runs clamp to
// one LP anyway).
std::string canon(const ExperimentResult& r) {
  std::ostringstream os;
  append_double(os, r.cov);
  append_double(os, r.mean_per_bin);
  os << r.app_generated << ';' << r.delivered << ';' << r.gw_arrivals << ';'
     << r.gw_drops << ';';
  append_double(os, r.loss_pct);
  os << r.timeouts << ';' << r.fast_retransmits << ';' << r.dupacks << ';'
     << r.retransmits << ';' << r.data_pkts_sent << ';';
  append_double(os, r.timeout_dupack_ratio);
  append_double(os, r.fairness);
  os << r.delay.count() << ';';
  append_double(os, r.delay.mean());
  append_double(os, r.delay.m2());
  append_double(os, r.delay.min());
  append_double(os, r.delay.max());
  os << r.routing_errors << ';';
  return os.str();
}

Scenario small(int clients, Transport t, GatewayQueue q, std::uint64_t seed) {
  Scenario s = Scenario::paper_default();
  s.num_clients = clients;
  s.transport = t;
  s.gateway = q;
  s.duration = 3.0;
  s.warmup = 0.5;
  s.seed = seed;
  return s;
}

// Metric names outside the parallel.* telemetry that only lp>1 runs add.
std::set<std::string> model_metric_names(const ExperimentResult& r) {
  std::set<std::string> names;
  for (const MetricPoint& m : r.metrics.points) {
    if (m.name.rfind("parallel.", 0) != 0) names.insert(m.name);
  }
  return names;
}

TEST(ParallelEquivalence, MatchesSequentialDumbbell) {
  Scenario fast = small(10, Transport::kReno, GatewayQueue::kDropTail, 11);
  fast.mean_interarrival = 0.003;
  for (const Scenario& sc :
       {small(12, Transport::kReno, GatewayQueue::kRed, 11), fast}) {
    ExperimentOptions lp1;  // sequential reference
    const ExperimentResult a = run_experiment(sc, lp1);
    for (int shards : {2, 3, 4}) {
      ExperimentOptions opt;
      opt.lp_shards = shards;
      const ExperimentResult b = run_experiment(sc, opt);
      EXPECT_EQ(b.lp_shards, shards) << "request was not honored";
      EXPECT_EQ(canon(a), canon(b)) << "lp=" << shards;
      // One run body: the analytic reference and the metric names (the
      // dumbbell's queue.gateway.* / link.bottleneck.*) do not depend on
      // the shard count either.
      EXPECT_EQ(a.poisson_cov, b.poisson_cov) << "lp=" << shards;
      EXPECT_EQ(model_metric_names(a), model_metric_names(b))
          << "lp=" << shards;
      // The remote delivery event replaces the producer's fused local one
      // 1:1, so the total event count matches the sequential engine
      // exactly — not approximately.
      EXPECT_EQ(a.sim_events, b.sim_events) << "lp=" << shards;
      EXPECT_EQ(static_cast<std::size_t>(shards), b.lp_stats.size());
      std::uint64_t lp_events = 0;
      for (const LpStats& p : b.lp_stats) lp_events += p.events;
      EXPECT_EQ(lp_events, b.sim_events);
    }
  }
}

// A traced run at @p shards LPs: its result, its merged records and every
// flow's cwnd series.
struct TracedRun {
  ExperimentResult result;
  std::uint64_t dropped = 0;
  std::vector<TraceRecord> records;
  std::vector<TraceSeries> series;
};

TracedRun traced_run(const Scenario& sc, int shards) {
  TraceSink sink;
  ExperimentOptions opt;
  opt.trace = &sink;
  opt.lp_shards = shards;
  TracedRun run;
  run.result = run_experiment(sc, opt);
  run.dropped = sink.dropped();
  run.records = sink.ordered();
  for (int c = 0; c < sc.num_clients; ++c) {
    run.series.push_back(
        sink.cwnd_series(c, "client " + std::to_string(c + 1)));
  }
  return run;
}

std::vector<Scenario> cwnd_traced_scenarios() {
  return {small(12, Transport::kReno, GatewayQueue::kRed, 11),
          small(10, Transport::kVegas, GatewayQueue::kDropTail, 3)};
}

// Tracing only observes, so a traced run shards like any other, and every
// flow's cwnd series equals the sequential run's: all of a flow's
// cwnd_change records come from the LP that runs its sender.
TEST(ParallelEquivalence, CwndTracedRunsShardAndMatchLp1) {
  for (const Scenario& sc : cwnd_traced_scenarios()) {
    const TracedRun lp1 = traced_run(sc, 1);
    for (int shards : {2, 4}) {
      const TracedRun r = traced_run(sc, shards);
      EXPECT_EQ(r.result.lp_shards, shards) << "request was not honored";
      EXPECT_EQ(r.result.lp_stats.size(), static_cast<std::size_t>(shards));
      EXPECT_EQ(canon(lp1.result), canon(r.result)) << "lp=" << shards;
      EXPECT_EQ(lp1.result.sim_events, r.result.sim_events)
          << "lp=" << shards;
      ASSERT_EQ(r.series.size(), lp1.series.size());
      for (std::size_t c = 0; c < r.series.size(); ++c) {
        EXPECT_EQ(r.series[c].name(), lp1.series[c].name());
        EXPECT_EQ(r.series[c].points(), lp1.series[c].points())
            << sc.label() << " " << lp1.series[c].name() << " lp=" << shards;
      }
    }
  }
}

// A flow's cwnd series is its cwnd_change records, at every shard count.
TEST(ParallelEquivalence, CwndSeriesAreTheCwndChangeRecordsAtEveryLp) {
  for (const Scenario& sc : cwnd_traced_scenarios()) {
    for (int shards : {1, 2, 4}) {
      const TracedRun r = traced_run(sc, shards);
      EXPECT_EQ(r.result.lp_shards, shards) << "request was not honored";
      ASSERT_EQ(r.dropped, 0u);
      for (int c = 0; c < sc.num_clients; ++c) {
        std::vector<std::pair<Time, double>> changes;
        for (const TraceRecord& rec : r.records) {
          if (rec.type == TraceEventType::kCwndChange && rec.flow == c) {
            changes.emplace_back(rec.time, rec.value);
          }
        }
        EXPECT_FALSE(changes.empty()) << sc.label() << " client " << c + 1;
        EXPECT_EQ(r.series[static_cast<std::size_t>(c)].points(), changes)
            << sc.label() << " client " << c + 1 << " lp=" << shards;
      }
    }
  }
}

// Run-to-run bit-identity at a fixed shard count, with a pinned hash so
// any drift in the merge order (which must be a pure function of message
// keys) or in cross-LP RNG fork discipline fails loudly. Re-pin only for
// an intentional semantic change, and document why.
TEST(ParallelDeterminism, Lp2RunIsBitIdenticalAndPinned) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 20;
  sc.duration = 6.0;
  sc.warmup = 1.0;
  sc.seed = 7;
  ExperimentOptions opt;
  opt.lp_shards = 2;
  const ExperimentResult a = run_experiment(sc, opt);
  const ExperimentResult b = run_experiment(sc, opt);
  EXPECT_EQ(canon(a), canon(b)) << "lp=2 run is not deterministic";
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(canon(a))));
  EXPECT_STREQ(buf, "c642f81c921393e7")
      << "lp=2 pinned metrics changed bit-for-bit. If intentional, re-pin "
      << "and document why.";
  // This scenario is result_identity_test's reno_droptail_n20 pin: the
  // parallel run must execute exactly its event count.
  EXPECT_EQ(a.sim_events, 70740u);
}

// Horizon-exchange fuzz: random small dumbbells across transports,
// queues, heterogeneous delays and shard counts, each checked against
// the sequential run as oracle. Any window-protocol bug — lookahead too
// large, a message landing inside a closed window, a merge-order tie
// broken by thread timing — shows up as a metrics or event-count drift.
TEST(ParallelFuzz, RandomScenariosMatchSequentialOracle) {
  std::uint64_t state = 0xB0A710ADULL;
  auto next = [&state](std::uint64_t mod) {
    state = splitmix64(state);
    return state % mod;
  };
  const Transport transports[] = {Transport::kUdp, Transport::kTahoe,
                                  Transport::kReno, Transport::kNewReno,
                                  Transport::kVegas, Transport::kSack};
  const GatewayQueue queues[] = {GatewayQueue::kDropTail, GatewayQueue::kRed,
                                 GatewayQueue::kDrr};
  for (int trial = 0; trial < 10; ++trial) {
    Scenario sc = Scenario::paper_default();
    sc.num_clients = 2 + static_cast<int>(next(11));  // 2..12
    sc.transport = transports[next(6)];
    sc.gateway = queues[next(3)];
    sc.duration = 2.0;
    sc.warmup = 0.25;
    sc.seed = 100 + static_cast<std::uint64_t>(trial);
    sc.client_delay = 0.005 + 0.005 * static_cast<double>(next(4));
    sc.client_delay_spread = next(2) == 0 ? 0.0 : 0.5;
    sc.delayed_ack = next(3) == 0;
    const int shards = 2 + static_cast<int>(next(3));  // 2..4

    ExperimentOptions lp1;
    const ExperimentResult a = run_experiment(sc, lp1);
    ExperimentOptions opt;
    opt.lp_shards = shards;
    const ExperimentResult b = run_experiment(sc, opt);
    EXPECT_EQ(canon(a), canon(b))
        << "trial " << trial << ": n=" << sc.num_clients << " transport="
        << static_cast<int>(sc.transport) << " queue="
        << static_cast<int>(sc.gateway) << " lp=" << shards;
    EXPECT_EQ(a.sim_events, b.sim_events) << "trial " << trial;
  }
}

}  // namespace
}  // namespace burst
