// System-wide conservation and accounting invariants: no packet is created
// or destroyed anywhere except at sources, queues (drops), and sinks.
#include <gtest/gtest.h>

#include "src/core/experiment.hpp"
#include "src/topo/builder.hpp"
#include "src/topo/spec.hpp"

namespace burst {
namespace {

Scenario scenario_for(Transport t, GatewayQueue q, int clients,
                      std::uint64_t seed) {
  Scenario s = Scenario::paper_default();
  s.transport = t;
  s.gateway = q;
  s.num_clients = clients;
  s.duration = 5.0;
  s.seed = seed;
  return s;
}

TEST(Conservation, UdpExactAccounting) {
  // For UDP, every generated packet is either delivered, dropped at some
  // queue, or still inside the network when the clock stops.
  Simulator sim(9);
  Scenario sc = scenario_for(Transport::kUdp, GatewayQueue::kDropTail, 45, 9);
  TopoNet net(sim, make_dumbbell_spec(sc));
  net.start_sources();
  sim.run(sc.duration);
  const std::uint64_t generated = net.total_generated();
  const std::uint64_t delivered = net.total_delivered();
  const std::uint64_t dropped = net.measured_queue().stats().drops;
  EXPECT_LE(delivered + dropped, generated);
  // In-flight at stop is bounded by the pipe: a generous cap.
  EXPECT_GE(delivered + dropped + 500, generated);
}

class ConservationMatrix
    : public ::testing::TestWithParam<std::tuple<Transport, GatewayQueue, int>> {
};

TEST_P(ConservationMatrix, TcpDeliversExactlyTheSentPrefix) {
  const auto [t, q, clients] = GetParam();
  Simulator sim(11);
  Scenario sc = scenario_for(t, q, clients, 11);
  TopoNet net(sim, make_dumbbell_spec(sc));
  net.start_sources();
  sim.run(sc.duration);
  for (int i = 0; i < net.num_flows(); ++i) {
    auto* snd = net.tcp_sender(i);
    auto* snk = net.tcp_sink(i);
    ASSERT_NE(snd, nullptr);
    ASSERT_NE(snk, nullptr);
    // The receiver's in-order prefix never exceeds what was ever sent
    // (snd_nxt may be lower right after a go-back-N rewind), and the
    // sender's cumulative-ack state never exceeds what was received.
    EXPECT_LE(snk->rcv_nxt(), snd->snd_max());
    EXPECT_LE(snd->snd_una(), snk->rcv_nxt());
    // Sequencing sanity.
    EXPECT_GE(snd->snd_nxt(), snd->snd_una());
    EXPECT_GE(snd->snd_max(), snd->snd_nxt());
    EXPECT_GE(snd->backlog(), 0);
    // Stats sanity: retransmits are part of data_pkts_sent.
    EXPECT_LE(snd->stats().retransmits, snd->stats().data_pkts_sent);
  }
  EXPECT_EQ(net.routing_errors(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ConservationMatrix,
    ::testing::Combine(::testing::Values(Transport::kTahoe, Transport::kReno,
                                         Transport::kNewReno,
                                         Transport::kVegas, Transport::kSack),
                       ::testing::Values(GatewayQueue::kDropTail,
                                         GatewayQueue::kRed,
                                         GatewayQueue::kDrr),
                       ::testing::Values(10, 45)));

TEST(Conservation, EventualDeliveryAfterSourcesStop) {
  // Stop generating, keep simulating: TCP must drain every backlog.
  Simulator sim(13);
  Scenario sc = scenario_for(Transport::kReno, GatewayQueue::kDropTail, 45, 13);
  TopoNet net(sim, make_dumbbell_spec(sc));
  net.start_sources();
  sim.run(3.0);
  for (int i = 0; i < net.num_flows(); ++i) net.source(i).stop();
  sim.run(300.0);  // generous drain time (RTO backoff can be slow)
  std::uint64_t backlog = 0;
  for (int i = 0; i < net.num_flows(); ++i) {
    backlog += static_cast<std::uint64_t>(net.tcp_sender(i)->backlog() +
                                          net.tcp_sender(i)->flight());
  }
  EXPECT_EQ(backlog, 0u);
  EXPECT_EQ(net.total_delivered(), net.total_generated());
}

TEST(Conservation, GatewayArrivalsMatchClientTransmissions) {
  Simulator sim(17);
  Scenario sc = scenario_for(Transport::kReno, GatewayQueue::kDropTail, 30, 17);
  TopoNet net(sim, make_dumbbell_spec(sc));
  std::uint64_t tap_count = 0;
  net.measured_queue().taps().add_arrival_listener([&](const Packet& p, Time) {
    if (p.type == PacketType::kData) ++tap_count;
  });
  net.start_sources();
  sim.run(sc.duration);
  std::uint64_t sent = 0;
  for (int i = 0; i < net.num_flows(); ++i) {
    sent += net.tcp_sender(i)->stats().data_pkts_sent;
  }
  // Everything a client transmitted either reached the gateway queue or is
  // still on a client link (bounded by pipe size).
  EXPECT_LE(tap_count, sent);
  EXPECT_GE(tap_count + 200, sent);
}

}  // namespace
}  // namespace burst
