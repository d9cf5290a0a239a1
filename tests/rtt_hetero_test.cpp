// Heterogeneous-RTT extension: per-client delay spread.
#include <gtest/gtest.h>

#include "src/core/experiment.hpp"
#include "src/stats/correlation.hpp"
#include "src/topo/builder.hpp"
#include "src/topo/spec.hpp"

namespace burst {
namespace {

TEST(RttHetero, HomogeneousByDefault) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 10;
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(sc.client_delay_for(i), sc.client_delay);
  }
}

TEST(RttHetero, LinearSpreadAcrossClients) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 5;
  sc.client_delay_spread = 0.5;
  // Delays: 20ms * {0.5, 0.75, 1.0, 1.25, 1.5}.
  EXPECT_NEAR(sc.client_delay_for(0), 0.010, 1e-12);
  EXPECT_NEAR(sc.client_delay_for(2), 0.020, 1e-12);
  EXPECT_NEAR(sc.client_delay_for(4), 0.030, 1e-12);
  // Mean delay is preserved (the sweep stays comparable).
  double sum = 0.0;
  for (int i = 0; i < 5; ++i) sum += sc.client_delay_for(i);
  EXPECT_NEAR(sum / 5.0, sc.client_delay, 1e-12);
}

TEST(RttHetero, SingleClientUnaffected) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 1;
  sc.client_delay_spread = 0.9;
  EXPECT_DOUBLE_EQ(sc.client_delay_for(0), sc.client_delay);
}

TEST(RttHetero, DumbbellAppliesPerClientDelays) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 3;
  sc.client_delay_spread = 0.5;
  sc.duration = 2.0;
  Simulator sim(1);
  TopoNet net(sim, make_dumbbell_spec(sc));
  net.start_sources();
  sim.run(sc.duration);
  // Shortest-RTT client measures a smaller base RTT than the longest.
  const double rtt0 = net.tcp_sender(0)->rto_estimator().srtt();
  const double rtt2 = net.tcp_sender(2)->rto_estimator().srtt();
  EXPECT_GT(rtt2, rtt0 + 0.015);  // 2*(30ms-10ms) propagation difference
}

TEST(RttHetero, RenoFavorsShortRttUnderContention) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 55;
  sc.duration = 10.0;
  sc.client_delay_spread = 0.8;
  Simulator sim(3);
  TopoNet net(sim, make_dumbbell_spec(sc));
  net.start_sources();
  sim.run(sc.duration);
  std::vector<double> delays, goodput;
  const auto per_flow = net.per_flow_delivered();
  for (int i = 0; i < sc.num_clients; ++i) {
    delays.push_back(sc.client_delay_for(i));
    goodput.push_back(per_flow[static_cast<std::size_t>(i)]);
  }
  EXPECT_LT(pearson(delays, goodput), -0.1);
}

}  // namespace
}  // namespace burst
