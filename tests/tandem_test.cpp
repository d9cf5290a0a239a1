// The two-bottleneck parking lot (make_tandem_spec) built through
// TopoNet: link statement 0 is the first hop's queue, statement 1 the
// second's.
#include <gtest/gtest.h>

#include "src/stats/binned_counter.hpp"
#include "src/topo/builder.hpp"
#include "src/topo/spec.hpp"

namespace burst {
namespace {

Scenario small(Transport t = Transport::kReno, int clients = 6) {
  Scenario sc = Scenario::paper_default();
  sc.transport = t;
  sc.num_clients = clients;
  sc.duration = 5.0;
  return sc;
}

TEST(TandemSpec, TrafficFlowsAcrossBothHops) {
  Simulator sim(1);
  TopoNet net(sim, make_tandem_spec(small(), 0.9));
  std::uint64_t hop1 = 0, hop2 = 0;
  net.link(0).queue().taps().add_arrival_listener(
      [&](const Packet& p, Time) { hop1 += p.type == PacketType::kData; });
  net.link(1).queue().taps().add_arrival_listener(
      [&](const Packet& p, Time) { hop2 += p.type == PacketType::kData; });
  net.start_sources();
  sim.run(5.0);
  EXPECT_GT(net.total_delivered(), 1000u);
  EXPECT_GT(hop1, 1000u);
  EXPECT_GT(hop2, 1000u);
  EXPECT_LE(hop2, hop1);  // hop2 sees only what hop1 forwarded
  EXPECT_EQ(net.routing_errors(), 0u);
}

TEST(TandemSpec, SecondHopIsTheRateLimit) {
  // Past saturation of the *second* hop, goodput tracks its capacity.
  const Scenario sc = small(Transport::kUdp, 42);
  const double second_hop_ratio = 0.8;
  Simulator sim(2);
  TopoNet net(sim, make_tandem_spec(sc, second_hop_ratio));
  net.start_sources();
  sim.run(sc.duration);
  const double cap2 = sc.bottleneck_pps() * second_hop_ratio * sc.duration;
  EXPECT_LE(static_cast<double>(net.total_delivered()), 1.01 * cap2);
  EXPECT_GT(static_cast<double>(net.total_delivered()), 0.9 * cap2);
  EXPECT_GT(net.link(1).queue().stats().drops, 0u);
}

TEST(TandemSpec, TcpReliabilityHoldsAcrossHops) {
  Simulator sim(3);
  const Scenario sc = small(Transport::kReno, 40);
  TopoNet net(sim, make_tandem_spec(sc, 0.9));
  net.start_sources();
  sim.run(sc.duration);
  for (int i = 0; i < net.num_flows(); ++i) {
    auto* s = net.tcp_sender(i);
    ASSERT_NE(s, nullptr);
    EXPECT_GE(s->snd_nxt(), s->snd_una());
  }
  EXPECT_EQ(net.routing_errors(), 0u);
}

TEST(TandemSpec, UpstreamPacingSmoothsSecondHop) {
  // Departures of hop 1 are serialized at its service rate, so hop 2's
  // arrival c.o.v. cannot exceed hop 1's by much (property used by the
  // multihop ablation).
  Scenario sc = small(Transport::kUdp, 40);
  sc.duration = 20.0;
  Simulator sim(4);
  TopoNet net(sim, make_tandem_spec(sc, 0.9));
  BinnedCounter b1(sc.rtt_prop(), 2.0), b2(sc.rtt_prop(), 2.0);
  net.link(0).queue().taps().add_arrival_listener([&](const Packet& p, Time now) {
    if (p.type == PacketType::kData) b1.record(now);
  });
  net.link(1).queue().taps().add_arrival_listener(
      [&](const Packet& p, Time now) {
        if (p.type == PacketType::kData) b2.record(now);
      });
  net.start_sources();
  sim.run(sc.duration);
  const double cov1 = b1.stats_until(sc.duration).cov();
  const double cov2 = b2.stats_until(sc.duration).cov();
  EXPECT_LT(cov2, cov1 * 1.2 + 0.01);
}

TEST(TandemSpec, VegasWorksOnTandem) {
  Simulator sim(5);
  const Scenario sc = small(Transport::kVegas, 30);
  TopoNet net(sim, make_tandem_spec(sc, 0.9));
  net.start_sources();
  sim.run(sc.duration);
  EXPECT_GT(net.total_delivered(), 1000u);
  EXPECT_EQ(net.routing_errors(), 0u);
}

}  // namespace
}  // namespace burst
