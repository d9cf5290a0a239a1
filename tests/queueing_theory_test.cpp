// Closed-form checks plus simulator-vs-theory validation: the dumbbell
// with UDP/Poisson clients is an M/D/1(/K) system, so the measured queue
// must match Pollaczek-Khinchine and the loss must match the finite-buffer
// models within sampling noise.
#include "src/stats/queueing_theory.hpp"

#include <gtest/gtest.h>

#include "src/net/flow_monitor.hpp"
#include "src/topo/builder.hpp"
#include "src/topo/spec.hpp"

namespace burst {
namespace {

TEST(QueueingTheory, Mm1MeanSystem) {
  EXPECT_DOUBLE_EQ(mm1_mean_system(0.0), 0.0);
  EXPECT_DOUBLE_EQ(mm1_mean_system(0.5), 1.0);
  EXPECT_NEAR(mm1_mean_system(0.9), 9.0, 1e-12);
}

TEST(QueueingTheory, Mm1kBlockingKnownValues) {
  // K=1: system is an M/M/1/1 loss system; blocking = rho/(1+rho).
  EXPECT_NEAR(mm1k_blocking(1.0, 1), 0.5, 1e-12);
  EXPECT_NEAR(mm1k_blocking(0.5, 1), 0.5 / 1.5, 1e-12);
  // rho = 1 limit: uniform over K+1 states.
  EXPECT_NEAR(mm1k_blocking(1.0, 10), 1.0 / 11.0, 1e-12);
}

TEST(QueueingTheory, Mm1kBlockingMonotonicInRho) {
  double prev = 0.0;
  for (double rho : {0.3, 0.6, 0.9, 1.2, 1.5}) {
    const double b = mm1k_blocking(rho, 20);
    EXPECT_GT(b, prev);
    prev = b;
  }
}

TEST(QueueingTheory, Mm1kBlockingDecreasesWithBuffer) {
  double prev = 1.0;
  for (int k : {5, 10, 20, 40}) {
    const double b = mm1k_blocking(0.9, k);
    EXPECT_LT(b, prev);
    prev = b;
  }
}

TEST(QueueingTheory, Mm1kMeanApproachesMm1ForLargeK) {
  EXPECT_NEAR(mm1k_mean_system(0.7, 500), mm1_mean_system(0.7), 1e-6);
}

TEST(QueueingTheory, Md1MeanQueueHalfOfMm1) {
  // M/D/1 waits are half the M/M/1 waits: Lq = rho^2 / (2(1-rho)).
  EXPECT_NEAR(md1_mean_queue(0.5), 0.25, 1e-12);
  EXPECT_NEAR(md1_mean_system(0.5), 0.75, 1e-12);
}

TEST(QueueingTheory, SlowStartAlgebra) {
  EXPECT_EQ(slow_start_rounds(1.0), 0);
  EXPECT_EQ(slow_start_rounds(2.0), 1);
  EXPECT_EQ(slow_start_rounds(16.0), 4);
  EXPECT_EQ(slow_start_rounds(17.0), 5);
  EXPECT_DOUBLE_EQ(slow_start_packets(16.0), 15.0);
}

class Md1ValidationTest : public ::testing::TestWithParam<int> {};

TEST_P(Md1ValidationTest, SimulatedQueueMatchesPollaczekKhinchine) {
  // UDP/Poisson through the dumbbell: arrivals at the bottleneck are
  // Poisson (sum of independent Poisson clients), service is
  // deterministic => M/D/1. By PASTA the queue seen at arrivals equals the
  // time average, so FlowMonitor's sampler must match theory.
  const int clients = GetParam();
  Scenario sc = Scenario::paper_default();
  sc.transport = Transport::kUdp;
  sc.num_clients = clients;
  sc.duration = 120.0;
  sc.gateway_buffer = 100000;  // effectively infinite: pure M/D/1

  Simulator sim(5);
  TopoNet net(sim, make_dumbbell_spec(sc));
  FlowMonitor monitor(net.measured_queue());
  net.start_sources();
  sim.run(sc.duration);

  const double rho = sc.utilization();
  ASSERT_LT(rho, 1.0);
  // The monitor samples the *waiting* packets (the one in transmission has
  // already left the queue), i.e. Lq of M/D/1.
  const double measured = monitor.queue_at_arrival().mean();
  const double theory = md1_mean_queue(rho);
  EXPECT_NEAR(measured, theory, 0.15 * theory + 0.05)
      << "clients=" << clients << " rho=" << rho;
}

INSTANTIATE_TEST_SUITE_P(Loads, Md1ValidationTest,
                         ::testing::Values(10, 20, 30, 35));

TEST(QueueingTheory, FiniteBufferLossBracketsSimulation) {
  // Overloaded UDP (rho > 1): loss must be at least (1 - 1/rho), and the
  // M/M/1/K model (burstier arrivals than M/D/1/K) upper-bounds it.
  Scenario sc = Scenario::paper_default();
  sc.transport = Transport::kUdp;
  sc.num_clients = 50;
  sc.duration = 60.0;
  Simulator sim(6);
  TopoNet net(sim, make_dumbbell_spec(sc));
  net.start_sources();
  sim.run(sc.duration);
  const double rho = sc.utilization();
  ASSERT_GT(rho, 1.0);
  const double measured = net.measured_queue().stats().loss_fraction();
  const double lower = 1.0 - 1.0 / rho;
  const double upper =
      mm1k_blocking(rho, static_cast<int>(sc.gateway_buffer));
  EXPECT_GT(measured, 0.95 * lower);
  EXPECT_LT(measured, 1.10 * upper);
}

}  // namespace
}  // namespace burst
