#include "src/core/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/report.hpp"
#include "src/obs/trace.hpp"
#include "src/run/result_store.hpp"
#include "src/sim/simulator.hpp"
#include "src/stats/trace_analysis.hpp"
#include "src/topo/builder.hpp"
#include "src/topo/spec.hpp"
#include "src/transport/tcp_sender.hpp"

namespace burst {
namespace {

Scenario quick(int clients, Transport t = Transport::kReno) {
  Scenario s = Scenario::paper_default();
  s.num_clients = clients;
  s.duration = 6.0;
  s.warmup = 1.0;
  s.transport = t;
  return s;
}

TEST(Experiment, CollectsBasicMetrics) {
  const auto r = run_experiment(quick(10));
  EXPECT_GT(r.app_generated, 0u);
  EXPECT_GT(r.delivered, 0u);
  EXPECT_GT(r.gw_arrivals, 0u);
  EXPECT_GT(r.cov, 0.0);
  EXPECT_GT(r.poisson_cov, 0.0);
  EXPECT_EQ(r.routing_errors, 0u);
  EXPECT_GE(r.fairness, 0.9);
}

// arena_bytes is what the TCP agents hold at the end of the run, and
// like the wall time it stays out of the store line.
TEST(Experiment, ReportsTheAgentBytes) {
  const Scenario sc = quick(10);
  const ExperimentResult r = run_experiment(sc);
  Simulator sim(sc.seed);
  TopoNet net(sim, make_dumbbell_spec(sc));
  // Before the run the send-time rings are empty: only the agent objects.
  const std::size_t built = net.arena_bytes_reserved();
  net.start_sources();
  sim.run(sc.duration);
  EXPECT_GT(r.arena_bytes, built);
  EXPECT_EQ(r.arena_bytes, net.arena_bytes_reserved());
  EXPECT_EQ(result_to_json(r).find("arena"), std::string::npos);
  ExperimentResult loaded;
  ASSERT_TRUE(result_from_json(result_to_json(r), &loaded));
  EXPECT_EQ(loaded.arena_bytes, 0u);
}

// A receiver window no flow can fill is simply unbounded: the send-time
// ring is sized by what a sender put in flight, so any window this large
// runs the same simulation in the same few bytes per flow.
TEST(Experiment, UnreachableAdvertisedWindowsRunAlike) {
  for (const Transport t : {Transport::kReno, Transport::kVegas}) {
    std::string first;
    for (const double window : {1e6, 1e12, 1e19, 1e300}) {
      Scenario sc = quick(8, t);
      sc.duration = 3.0;
      sc.advertised_window = window;
      const ExperimentResult r = run_experiment(sc);
      EXPECT_GT(r.delivered, 0u);
      EXPECT_LE(static_cast<double>(r.arena_bytes) / sc.num_clients, 2048.0)
          << "window " << window;
      const std::string json = result_to_json(r);
      if (first.empty()) first = json;
      EXPECT_EQ(json, first) << "window " << window;
    }
  }
}

TEST(Experiment, DeterministicForSameSeed) {
  const auto a = run_experiment(quick(15));
  const auto b = run_experiment(quick(15));
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.gw_drops, b.gw_drops);
  EXPECT_DOUBLE_EQ(a.cov, b.cov);
  EXPECT_EQ(a.timeouts, b.timeouts);
}

TEST(Experiment, DifferentSeedsDiffer) {
  Scenario s1 = quick(15), s2 = quick(15);
  s2.seed = 999;
  const auto a = run_experiment(s1);
  const auto b = run_experiment(s2);
  EXPECT_NE(a.app_generated, b.app_generated);
}

TEST(Experiment, UdpCovMatchesPoissonAnalytic) {
  Scenario s = quick(20, Transport::kUdp);
  s.duration = 30.0;
  const auto r = run_experiment(s);
  EXPECT_NEAR(r.cov, r.poisson_cov, 0.25 * r.poisson_cov);
}

TEST(Experiment, PoissonCovIsTheDumbbellFormulaBitForBit) {
  // The analytic reference of a dumbbell is N streams of rate 1/mean over
  // one RTT, exactly — at every shard count. N=10, mean 0.003 is the case
  // whose last bits once depended on the shard count.
  for (const auto& [n, mia] : {std::pair{10, 0.003}, std::pair{7, 0.0125},
                               std::pair{33, 0.02}}) {
    Scenario s = quick(n);
    s.mean_interarrival = mia;
    s.duration = 1.5;
    s.warmup = 0.5;
    const double expected =
        poisson_aggregate_cov(n, 1.0 / mia, s.rtt_prop());
    for (const int shards : {1, 2}) {
      ExperimentOptions opts;
      opts.lp_shards = shards;
      const auto r = run_experiment(s, opts);
      EXPECT_EQ(r.lp_shards, shards);
      EXPECT_EQ(r.poisson_cov, expected)
          << "N=" << n << " mean=" << mia << " lp=" << shards;
    }
  }
}

TEST(Experiment, ThroughputBoundedByCapacity) {
  Scenario s = quick(50);
  const auto r = run_experiment(s);
  const double max_pkts = s.bottleneck_pps() * s.duration;
  EXPECT_LE(static_cast<double>(r.delivered), max_pkts * 1.01);
}

TEST(Experiment, UncongestedHasNoLoss) {
  const auto r = run_experiment(quick(5));
  EXPECT_DOUBLE_EQ(r.loss_pct, 0.0);
  EXPECT_EQ(r.timeouts, 0u);
}

TEST(Experiment, CongestedHasLossAndRecovery) {
  const auto r = run_experiment(quick(50));
  EXPECT_GT(r.loss_pct, 0.0);
  EXPECT_GT(r.timeouts + r.fast_retransmits, 0u);
  EXPECT_GT(r.retransmits, 0u);
}

TEST(Experiment, CwndTracesRequested) {
  TraceSink sink;
  ExperimentOptions opts;
  opts.trace = &sink;
  run_experiment(quick(10), opts);
  const auto traces = client_cwnd_series(sink, {0, 2});
  ASSERT_TRUE(traces.has_value());
  ASSERT_EQ(traces->size(), 2u);
  EXPECT_EQ((*traces)[0].name(), "client 1");
  EXPECT_EQ((*traces)[1].name(), "client 3");
  EXPECT_FALSE((*traces)[0].empty());
}

TEST(Experiment, CwndTracingAddsNoEvents) {
  Scenario s = quick(30);
  s.gateway = GatewayQueue::kRed;
  const auto bare = run_experiment(s);
  TraceSink sink;
  ExperimentOptions opts;
  opts.trace = &sink;
  const auto traced = run_experiment(s, opts);
  EXPECT_EQ(traced.sim_events, bare.sim_events);
  EXPECT_EQ(traced.peak_pending, bare.peak_pending);
  EXPECT_EQ(traced.metrics, bare.metrics);
  EXPECT_EQ(traced.cov, bare.cov);
  EXPECT_EQ(traced.delivered, bare.delivered);
  EXPECT_EQ(traced.gw_drops, bare.gw_drops);
  EXPECT_EQ(traced.timeouts, bare.timeouts);
  EXPECT_EQ(sink.dropped(), 0u);
  for (int c = 0; c < s.num_clients; ++c) {
    EXPECT_FALSE(sink.cwnd_series(c, "").empty()) << "client " << c + 1;
  }
}

// fig10 samples a flow's window every 0.1 s: its cwnd_change series,
// resampled, with the initial window of 1 before the first change.
TEST(Experiment, PeriodicCwndSampling) {
  TraceSink sink;
  ExperimentOptions opts;
  opts.trace = &sink;
  Scenario s = quick(10);
  run_experiment(s, opts);
  const TraceSeries cwnd = sink.cwnd_series(0, "client 1");
  ASSERT_FALSE(cwnd.empty());
  EXPECT_GT(cwnd.points().front().first, 0.0);
  const std::vector<double> grid = resample(cwnd, 0.0, s.duration, 0.1, 1.0);
  EXPECT_GE(grid.size(), static_cast<std::size_t>(s.duration / 0.1));
  EXPECT_EQ(grid.front(), 1.0);
  EXPECT_GT(*std::max_element(grid.begin(), grid.end()), 1.0);
  for (const double v : grid) EXPECT_GE(v, 1.0);
}

// The event-scheduled sampler run_experiment once ran, kept as the
// reference: one event chain per sender, first at `period`, then every
// `period` while <= until, reading the sender's window.
void arm_sampler(Simulator& sim, const TcpSender* s, TraceSeries* t,
                 Time period, Time until) {
  if (sim.now() + period > until) return;
  sim.schedule(period, [&sim, s, t, period, until] {
    t->record(sim.now(), s->cwnd());
    arm_sampler(sim, s, t, period, until);
  });
}

// Between events a sender's window is its last cwnd_change value, so the
// cwnd series, read at any instant, is what a live sampler would read.
TEST(Experiment, CwndGridMatchesAScheduledSampler) {
  for (const auto& [n, transport, queue] :
       {std::tuple{60, Transport::kReno, GatewayQueue::kRed},
        std::tuple{30, Transport::kVegas, GatewayQueue::kDropTail}}) {
    Scenario s = quick(n, transport);
    s.gateway = queue;
    s.duration = 10.0;
    TraceSink sink;
    ExperimentOptions opts;
    opts.trace = &sink;
    run_experiment(s, opts);
    ASSERT_EQ(sink.dropped(), 0u);

    Simulator sim(s.seed);
    TopoNet net(sim, make_dumbbell_spec(s));
    std::vector<TraceSeries> ref;
    std::vector<double> initial;
    ref.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      ref.emplace_back("client " + std::to_string(i + 1));
      const TcpSender* sender = net.tcp_sender(i);
      initial.push_back(sender->cwnd());
      arm_sampler(sim, sender, &ref.back(), 0.1, s.duration);
    }
    net.start_sources();
    sim.run(s.duration);

    for (int i = 0; i < n; ++i) {
      const auto c = static_cast<std::size_t>(i);
      const TraceSeries cwnd = sink.cwnd_series(i, ref[c].name());
      ASSERT_GE(ref[c].points().size(),
                static_cast<std::size_t>(s.duration / 0.1) - 1);
      const std::vector<double> grid =
          resample(cwnd, 0.1, ref[c].points().back().first + 0.05, 0.1,
                   initial[c]);
      ASSERT_EQ(grid.size(), ref[c].points().size()) << ref[c].name();
      for (std::size_t k = 0; k < grid.size(); ++k) {
        EXPECT_EQ(grid[k], ref[c].points()[k].second)
            << s.label() << " " << ref[c].name() << " t="
            << ref[c].points()[k].first;
      }
    }
  }
}

TEST(Experiment, UdpHasNoTcpCounters) {
  const auto r = run_experiment(quick(10, Transport::kUdp));
  EXPECT_EQ(r.timeouts, 0u);
  EXPECT_EQ(r.dupacks, 0u);
  EXPECT_EQ(r.data_pkts_sent, 0u);  // counter only sums TCP senders
}

TEST(Experiment, TimeoutDupackRatioGuardsZero) {
  // Loss-free run: neither timeouts nor dupacks -> ratio is 0.
  const auto r = run_experiment(quick(5));
  EXPECT_EQ(r.timeouts, 0u);
  EXPECT_EQ(r.dupacks, 0u);
  EXPECT_DOUBLE_EQ(r.timeout_dupack_ratio, 0.0);
}

TEST(Experiment, TimeoutDupackRatioNormalCase) {
  // Congested run with dupacks present: the ratio is the plain quotient.
  const auto r = run_experiment(quick(50));
  ASSERT_GT(r.dupacks, 0u);
  EXPECT_DOUBLE_EQ(r.timeout_dupack_ratio,
                   static_cast<double>(r.timeouts) /
                       static_cast<double>(r.dupacks));
}

TEST(Experiment, TimeoutOnlyRatioClampsDenominatorToOne) {
  // A one-packet window can never generate duplicate ACKs, so every loss
  // recovers via timeout. The documented convention: with timeouts > 0 and
  // dupacks == 0 the denominator clamps to 1 (ratio == timeout count),
  // distinguishing dup-ACK starvation from a loss-free run's 0.
  // Many one-packet-window flows against a tiny buffer force drops, while
  // the queueing delay (3 pkts / 240 pps = 12.5 ms) stays far below
  // min_rto so no spurious retransmit ever manufactures a duplicate ACK.
  Scenario s = quick(30);
  s.advertised_window = 1.0;
  s.bottleneck_bw_bps = 2e6;
  s.gateway_buffer = 3;
  const auto r = run_experiment(s);
  ASSERT_GT(r.timeouts, 0u);
  ASSERT_EQ(r.dupacks, 0u);
  EXPECT_DOUBLE_EQ(r.timeout_dupack_ratio, static_cast<double>(r.timeouts));
}

class ExperimentTransportMatrix
    : public ::testing::TestWithParam<std::tuple<Transport, GatewayQueue>> {};

TEST_P(ExperimentTransportMatrix, InvariantsHoldAcrossConfigurations) {
  const auto [t, q] = GetParam();
  Scenario s = quick(42, t);
  s.gateway = q;
  const auto r = run_experiment(s);
  // Universal sanity invariants, regardless of protocol/queue.
  EXPECT_LE(r.delivered, r.app_generated);
  EXPECT_LE(r.gw_drops, r.gw_arrivals);
  EXPECT_GE(r.loss_pct, 0.0);
  EXPECT_LE(r.loss_pct, 100.0);
  EXPECT_GT(r.delivered, 0u);
  EXPECT_GE(r.fairness, 0.0);
  EXPECT_LE(r.fairness, 1.0);
  EXPECT_EQ(r.routing_errors, 0u);
  const double max_pkts = s.bottleneck_pps() * s.duration;
  EXPECT_LE(static_cast<double>(r.delivered), max_pkts * 1.01);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ExperimentTransportMatrix,
    ::testing::Combine(::testing::Values(Transport::kUdp, Transport::kTahoe,
                                         Transport::kReno, Transport::kNewReno,
                                         Transport::kVegas),
                       ::testing::Values(GatewayQueue::kDropTail,
                                         GatewayQueue::kRed)));

}  // namespace
}  // namespace burst
