#include "src/core/experiment.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>

#include "src/sim/simulator.hpp"
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
  ExperimentOptions opts;
  opts.trace_clients = {0, 2};
  const auto r = run_experiment(quick(10), opts);
  ASSERT_EQ(r.cwnd_traces.size(), 2u);
  EXPECT_EQ(r.cwnd_traces[0].name(), "client 1");
  EXPECT_EQ(r.cwnd_traces[1].name(), "client 3");
  EXPECT_FALSE(r.cwnd_traces[0].empty());
}

TEST(Experiment, PeriodicCwndSampling) {
  ExperimentOptions opts;
  opts.trace_clients = {0};
  opts.cwnd_sample_period = 0.1;
  Scenario s = quick(10);
  const auto r = run_experiment(s, opts);
  ASSERT_EQ(r.cwnd_traces.size(), 1u);
  // At least ~duration/period points (plus change-driven ones).
  EXPECT_GE(r.cwnd_traces[0].points().size(),
            static_cast<std::size_t>(s.duration / 0.1) - 2);
}

ExperimentOptions trace_all(int clients) {
  ExperimentOptions opts;
  for (int i = 0; i < clients; ++i) opts.trace_clients.push_back(i);
  opts.cwnd_sample_period = 0.1;
  return opts;
}

TEST(Experiment, CwndTracingAddsNoEvents) {
  Scenario s = quick(30);
  s.gateway = GatewayQueue::kRed;
  const auto bare = run_experiment(s);
  const auto traced = run_experiment(s, trace_all(30));
  EXPECT_EQ(traced.sim_events, bare.sim_events);
  EXPECT_EQ(traced.peak_pending, bare.peak_pending);
  EXPECT_EQ(traced.metrics, bare.metrics);
  EXPECT_EQ(traced.cov, bare.cov);
  EXPECT_EQ(traced.delivered, bare.delivered);
  EXPECT_EQ(traced.gw_drops, bare.gw_drops);
  EXPECT_EQ(traced.timeouts, bare.timeouts);
  ASSERT_EQ(traced.cwnd_traces.size(), 30u);
  EXPECT_GT(traced.cwnd_traces[0].points().size(),
            static_cast<std::size_t>(s.duration / 0.1) - 2);
}

// The event-scheduled sampler run_experiment used before the grid was
// filled after the run, kept as the reference: one event chain per traced
// sender, first at `period`, then every `period` while <= until.
void arm_sampler(Simulator& sim, const TcpSender* s, TraceSeries* t,
                 Time period, Time until) {
  if (sim.now() + period > until) return;
  sim.schedule(period, [&sim, s, t, period, until] {
    t->record(sim.now(), s->cwnd());
    arm_sampler(sim, s, t, period, until);
  });
}

TEST(Experiment, CwndGridMatchesAScheduledSampler) {
  for (const auto& [n, transport, queue] :
       {std::tuple{60, Transport::kReno, GatewayQueue::kRed},
        std::tuple{30, Transport::kVegas, GatewayQueue::kDropTail}}) {
    Scenario s = quick(n, transport);
    s.gateway = queue;
    s.duration = 10.0;
    const auto r = run_experiment(s, trace_all(n));

    Simulator sim(s.seed);
    TopoNet net(sim, make_dumbbell_spec(s));
    std::vector<TraceSeries> ref;
    ref.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      ref.emplace_back("client " + std::to_string(i + 1));
      TcpSender* sender = net.tcp_sender(i);
      sender->set_cwnd_trace(&ref.back());
      arm_sampler(sim, sender, &ref.back(), 0.1, s.duration);
    }
    net.start_sources();
    sim.run(s.duration);

    ASSERT_EQ(r.cwnd_traces.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(r.cwnd_traces[i].name(), ref[i].name());
      EXPECT_EQ(r.cwnd_traces[i].points(), ref[i].points())
          << s.label() << " " << ref[i].name();
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
