// The paper dumbbell (make_dumbbell_spec) built through TopoNet: wiring,
// transport/queue selection and end-to-end traffic.
#include <gtest/gtest.h>

#include "src/net/red_queue.hpp"
#include "src/topo/builder.hpp"
#include "src/topo/spec.hpp"
#include "src/transport/tcp_reno.hpp"
#include "src/transport/tcp_vegas.hpp"

namespace burst {
namespace {

Scenario small(Transport t = Transport::kReno) {
  Scenario s = Scenario::paper_default();
  s.num_clients = 4;
  s.duration = 5.0;
  s.transport = t;
  return s;
}

TEST(DumbbellSpec, WiresAllClients) {
  Simulator sim(1);
  TopoNet net(sim, make_dumbbell_spec(small()));
  EXPECT_EQ(net.num_flows(), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(net.tcp_sender(i), nullptr);
    EXPECT_NE(net.tcp_sink(i), nullptr);
    EXPECT_EQ(net.udp_sink(i), nullptr);
  }
}

TEST(DumbbellSpec, UdpVariantHasUdpAgents) {
  Simulator sim(1);
  TopoNet net(sim, make_dumbbell_spec(small(Transport::kUdp)));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(net.tcp_sender(i), nullptr);
    EXPECT_NE(net.udp_sink(i), nullptr);
  }
}

TEST(DumbbellSpec, TransportSelection) {
  Simulator sim(1);
  {
    TopoNet net(sim, make_dumbbell_spec(small(Transport::kVegas)));
    EXPECT_NE(dynamic_cast<TcpVegas*>(net.tcp_sender(0)), nullptr);
  }
}

TEST(DumbbellSpec, TrafficFlowsEndToEnd) {
  Simulator sim(1);
  Scenario sc = small();
  TopoNet net(sim, make_dumbbell_spec(sc));
  net.start_sources();
  sim.run(sc.duration);
  EXPECT_GT(net.total_generated(), 100u);
  EXPECT_GT(net.total_delivered(), 100u);
  EXPECT_EQ(net.routing_errors(), 0u);
  // 4 clients cannot congest the 32 Mbps bottleneck: nothing dropped.
  EXPECT_EQ(net.measured_queue().stats().drops, 0u);
}

TEST(DumbbellSpec, DeliveredNeverExceedsGenerated) {
  Simulator sim(2);
  Scenario sc = small();
  sc.num_clients = 45;  // congested
  sc.duration = 3.0;
  TopoNet net(sim, make_dumbbell_spec(sc));
  net.start_sources();
  sim.run(sc.duration);
  EXPECT_LE(net.total_delivered(), net.total_generated());
  EXPECT_GT(net.measured_queue().stats().drops, 0u);
}

TEST(DumbbellSpec, PerFlowDeliveredSumsToTotal) {
  Simulator sim(3);
  Scenario sc = small();
  TopoNet net(sim, make_dumbbell_spec(sc));
  net.start_sources();
  sim.run(sc.duration);
  const auto per_flow = net.per_flow_delivered();
  ASSERT_EQ(per_flow.size(), 4u);
  double sum = 0.0;
  for (double d : per_flow) sum += d;
  EXPECT_DOUBLE_EQ(sum, static_cast<double>(net.total_delivered()));
}

TEST(DumbbellSpec, RedScenarioUsesRedQueue) {
  Simulator sim(1);
  Scenario sc = small();
  sc.gateway = GatewayQueue::kRed;
  TopoNet net(sim, make_dumbbell_spec(sc));
  // RedQueue exposes avg(); a DropTailQueue would not dynamic_cast.
  EXPECT_NE(dynamic_cast<RedQueue*>(&net.measured_queue()), nullptr);
}

TEST(DumbbellSpec, BottleneckLinkParametersFollowScenario) {
  Simulator sim(1);
  Scenario sc = small();
  TopoNet net(sim, make_dumbbell_spec(sc));
  EXPECT_DOUBLE_EQ(net.measured_link().bandwidth_bps(), sc.bottleneck_bw_bps);
  EXPECT_DOUBLE_EQ(net.measured_link().prop_delay(), sc.bottleneck_delay);
}

TEST(DumbbellSpec, AckPathDoesNotCongest) {
  Simulator sim(4);
  Scenario sc = small();
  sc.num_clients = 50;
  sc.duration = 3.0;
  TopoNet net(sim, make_dumbbell_spec(sc));
  net.start_sources();
  sim.run(sc.duration);
  // All drops happen at the bottleneck: client/reverse queues never drop.
  std::uint64_t total_gw_drops = net.measured_queue().stats().drops;
  EXPECT_GT(total_gw_drops, 0u);
  EXPECT_EQ(net.routing_errors(), 0u);
}

}  // namespace
}  // namespace burst
