#include "src/core/scenario.hpp"

#include <gtest/gtest.h>

#include "src/net/red_queue.hpp"
#include "src/sim/simulator.hpp"
#include "src/topo/builder.hpp"
#include "src/topo/spec.hpp"

namespace burst {
namespace {

TEST(Scenario, PaperDefaultsMatchReconstructedTable1) {
  const Scenario s = Scenario::paper_default();
  EXPECT_DOUBLE_EQ(s.client_bw_bps, 10e6);
  EXPECT_DOUBLE_EQ(s.client_delay, 0.020);
  EXPECT_DOUBLE_EQ(s.bottleneck_bw_bps, 32e6);
  EXPECT_DOUBLE_EQ(s.bottleneck_delay, 0.020);
  EXPECT_DOUBLE_EQ(s.advertised_window, 20.0);
  EXPECT_EQ(s.gateway_buffer, 50u);
  EXPECT_EQ(s.payload_bytes, 1000);
  EXPECT_DOUBLE_EQ(s.mean_interarrival, 0.01);
  EXPECT_DOUBLE_EQ(s.duration, 20.0);
  EXPECT_DOUBLE_EQ(s.red_min_th, 10.0);
  EXPECT_DOUBLE_EQ(s.red_max_th, 40.0);
  EXPECT_DOUBLE_EQ(s.vegas.alpha, 1.0);
  EXPECT_DOUBLE_EQ(s.vegas.beta, 3.0);
  EXPECT_DOUBLE_EQ(s.vegas.gamma, 1.0);
}

TEST(Scenario, DerivedQuantities) {
  const Scenario s = Scenario::paper_default();
  EXPECT_DOUBLE_EQ(s.rtt_prop(), 0.080);
  EXPECT_EQ(s.wire_bytes(), 1040);
  EXPECT_NEAR(s.bottleneck_pps(), 3846.15, 0.01);
  // The paper's crossover: saturation between 38 and 39 clients.
  EXPECT_GT(s.saturation_clients(), 38.0);
  EXPECT_LT(s.saturation_clients(), 39.0);
}

TEST(Scenario, OfferedLoadAndUtilization) {
  Scenario s = Scenario::paper_default();
  s.num_clients = 20;
  EXPECT_DOUBLE_EQ(s.offered_pps(), 2000.0);
  EXPECT_LT(s.utilization(), 1.0);
  s.num_clients = 39;
  EXPECT_GT(s.utilization(), 1.0);
}

// The RED gateway a dumbbell builds derives its thresholds, buffer and
// averaging clock from the Table 1 scenario.
TEST(Scenario, RedConfigDerivation) {
  Scenario s = Scenario::paper_default();
  s.gateway = GatewayQueue::kRed;
  Simulator sim(s.seed);
  TopoNet net(sim, make_dumbbell_spec(s));
  const auto* queue = dynamic_cast<const RedQueue*>(&net.measured_queue());
  ASSERT_NE(queue, nullptr);
  const RedConfig& red = queue->config();
  EXPECT_DOUBLE_EQ(red.min_th, 10.0);
  EXPECT_DOUBLE_EQ(red.max_th, 40.0);
  EXPECT_EQ(red.capacity, 50u);
  EXPECT_NEAR(red.mean_pkt_tx_time, 1040 * 8.0 / 32e6, 1e-12);
}

TEST(Scenario, Labels) {
  Scenario s = Scenario::paper_default();
  s.num_clients = 40;
  EXPECT_EQ(s.label(), "Reno N=40");
  s.gateway = GatewayQueue::kRed;
  EXPECT_EQ(s.label(), "Reno/RED N=40");
  s.delayed_ack = true;
  EXPECT_EQ(s.label(), "Reno/DelAck/RED N=40");
  s.transport = Transport::kVegas;
  s.delayed_ack = false;
  s.gateway = GatewayQueue::kDropTail;
  EXPECT_EQ(s.label(), "Vegas N=40");
}

TEST(Scenario, TransportNames) {
  EXPECT_EQ(to_string(Transport::kUdp), "UDP");
  EXPECT_EQ(to_string(Transport::kTahoe), "Tahoe");
  EXPECT_EQ(to_string(Transport::kReno), "Reno");
  EXPECT_EQ(to_string(Transport::kNewReno), "NewReno");
  EXPECT_EQ(to_string(Transport::kVegas), "Vegas");
  EXPECT_EQ(to_string(GatewayQueue::kDropTail), "FIFO");
  EXPECT_EQ(to_string(GatewayQueue::kRed), "RED");
}

}  // namespace
}  // namespace burst
