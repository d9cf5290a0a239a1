#include "src/net/link.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/net/drop_tail_queue.hpp"

namespace burst {
namespace {

Packet pkt(int bytes, std::int64_t seq = 0) {
  Packet p;
  p.size_bytes = bytes;
  p.seq = seq;
  return p;
}

struct Harness {
  Simulator sim{1};
  std::vector<std::pair<Time, Packet>> delivered;
  std::unique_ptr<SimplexLink> link;

  explicit Harness(double bw, Time delay, std::size_t cap = 1000) {
    link = std::make_unique<SimplexLink>(
        sim, std::make_unique<DropTailQueue>(cap), bw, delay);
    link->set_receiver(
        [this](const Packet& p) { delivered.emplace_back(sim.now(), p); });
  }
};

TEST(SimplexLink, SinglePacketLatencyIsTxPlusProp) {
  Harness h(8e6, 0.010);  // 8 Mbps, 10 ms
  h.link->send(pkt(1000));  // tx = 1000*8/8e6 = 1 ms
  h.sim.run();
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_DOUBLE_EQ(h.delivered[0].first, 0.001 + 0.010);
}

TEST(SimplexLink, BackToBackPacketsAreSerialized) {
  Harness h(8e6, 0.010);
  for (int i = 0; i < 5; ++i) h.link->send(pkt(1000, i));
  h.sim.run();
  ASSERT_EQ(h.delivered.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(h.delivered[static_cast<size_t>(i)].first,
                (i + 1) * 0.001 + 0.010, 1e-12);
    EXPECT_EQ(h.delivered[static_cast<size_t>(i)].second.seq, i);
  }
}

TEST(SimplexLink, ThroughputMatchesBandwidth) {
  Harness h(3.2e6, 0.0, 100000);
  const int n = 1000;
  for (int i = 0; i < n; ++i) h.link->send(pkt(1040, i));
  h.sim.run();
  ASSERT_EQ(h.delivered.size(), static_cast<size_t>(n));
  EXPECT_NEAR(h.delivered.back().first, n * 1040 * 8.0 / 3.2e6, 1e-9);
}

TEST(SimplexLink, QueueDropsWhenTransmitterBusy) {
  Harness h(8e6, 0.0, 2);  // queue capacity 2
  // One packet in flight + 2 queued + 2 dropped.
  for (int i = 0; i < 5; ++i) h.link->send(pkt(1000, i));
  h.sim.run();
  EXPECT_EQ(h.delivered.size(), 3u);
  EXPECT_EQ(h.link->queue().stats().drops, 2u);
}

TEST(SimplexLink, IdleThenBusyAgain) {
  Harness h(8e6, 0.005);
  h.link->send(pkt(1000, 0));
  h.sim.run();
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_NEAR(h.delivered[0].first, 0.006, 1e-12);
  // Second packet sent after the link has gone idle: same tx+prop latency
  // from its own send time.
  const Time send_at = h.sim.now() + 1.0;
  h.sim.schedule(1.0, [&] { h.link->send(pkt(1000, 1)); });
  h.sim.run();
  ASSERT_EQ(h.delivered.size(), 2u);
  EXPECT_NEAR(h.delivered[1].first, send_at + 0.001 + 0.005, 1e-12);
}

TEST(SimplexLink, MixedSizesSerializeProportionally) {
  Harness h(1e6, 0.0);
  h.link->send(pkt(125, 0));   // 1 ms at 1 Mbps
  h.link->send(pkt(1250, 1));  // 10 ms
  h.sim.run();
  ASSERT_EQ(h.delivered.size(), 2u);
  EXPECT_NEAR(h.delivered[0].first, 0.001, 1e-12);
  EXPECT_NEAR(h.delivered[1].first, 0.011, 1e-12);
}

TEST(SimplexLink, CountsDeliveredAndBytes) {
  Harness h(8e6, 0.0);
  h.link->send(pkt(1000));
  h.link->send(pkt(500));
  h.sim.run();
  EXPECT_EQ(h.link->delivered(), 2u);
  EXPECT_EQ(h.link->bytes_delivered(), 1500u);
}

TEST(SimplexLink, PropertiesExposed) {
  Harness h(5e6, 0.042);
  EXPECT_DOUBLE_EQ(h.link->bandwidth_bps(), 5e6);
  EXPECT_DOUBLE_EQ(h.link->prop_delay(), 0.042);
  EXPECT_FALSE(h.link->busy());
  h.link->send(pkt(1000));
  EXPECT_TRUE(h.link->busy());
}

TEST(SimplexLink, FusedDeliveryTimeEqualsTxThenPropToTheLastUlp) {
  // The fused single delivery event must land at (start + tx) + prop —
  // with exactly that floating-point association, since that is what the
  // old tx-complete -> propagate event pair computed. Deliberately awkward
  // values make (start + tx) + prop differ from start + (tx + prop) in the
  // last ulp, so EXPECT_EQ (not NEAR) would catch a re-association.
  const double bw = 9.7e6;
  const Time prop = 0.0137;
  const int bytes = 1033;
  Harness h(bw, prop);
  for (int i = 0; i < 7; ++i) h.link->send(pkt(bytes, i));
  h.sim.run();
  ASSERT_EQ(h.delivered.size(), 7u);
  const Time tx = transmission_time(bytes, bw);
  Time busy_until = 0.0;
  for (int i = 0; i < 7; ++i) {
    busy_until = busy_until + tx;  // successive transmission starts
    EXPECT_EQ(h.delivered[static_cast<size_t>(i)].first, busy_until + prop)
        << "packet " << i << " delivery time re-associated";
  }
}

TEST(SimplexLink, ArrivalExactlyAtTxEndKeepsFifoAndTiming) {
  // An arrival landing at precisely the instant the transmitter frees up
  // is the boundary the lazy free_at_ check must get right: the link
  // counts as busy through that instant (the drain owns the dequeue), so
  // the newcomer queues behind nothing and still ships immediately.
  Harness h(8e6, 0.010);        // tx(1000B) = 1 ms
  h.link->send(pkt(1000, 0));
  const Time tx = transmission_time(1000, 8e6);
  h.sim.schedule_at(tx, [&] {
    EXPECT_TRUE(h.link->busy());  // still busy AT the completion instant
    h.link->send(pkt(1000, 1));
  });
  h.sim.run();
  ASSERT_EQ(h.delivered.size(), 2u);
  EXPECT_EQ(h.delivered[0].second.seq, 0);
  EXPECT_EQ(h.delivered[1].second.seq, 1);
  // The second transmission starts at tx end regardless of the deferral.
  EXPECT_EQ(h.delivered[1].first, (tx + tx) + 0.010);
}

TEST(SimplexLink, DeliveryOrderIsFifoEvenWithZeroPropDelay) {
  Harness h(1e9, 0.0);
  for (int i = 0; i < 50; ++i) h.link->send(pkt(100, i));
  h.sim.run();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(h.delivered[static_cast<size_t>(i)].second.seq, i);
  }
}

TEST(SimplexLink, InFlightFifoGrowsWithTheWireNotTheQueueBound) {
  Harness h(8e6, 0.010, /*cap=*/1000);  // tx(1000B) = 1 ms, prop = 10 ms
  EXPECT_EQ(h.link->in_flight().capacity(), 0u);  // never saw a packet
  for (int i = 0; i < 40; ++i) h.link->send(pkt(1000, i));
  h.sim.run();
  ASSERT_EQ(h.delivered.size(), 40u);
  EXPECT_TRUE(h.link->in_flight().empty());
  // At most prop/tx + 1 = 11 packets are ever on the wire at once.
  EXPECT_EQ(h.link->in_flight().capacity(), 16u);
}

TEST(SimplexLink, ReceiverMaySendOnItsOwnLink) {
  // Each delivery pops its packet before the receiver runs, so a receiver
  // that sends back into the same link finds a free slot in the ring and
  // still holds an intact packet after its send.
  Simulator sim(1);
  SimplexLink link(sim, std::make_unique<DropTailQueue>(100), 8e6, 0.010);
  std::vector<std::int64_t> order;
  link.set_receiver([&](const Packet& p) {
    const std::int64_t seq = p.seq;
    order.push_back(seq);
    if (seq < 20) link.send(pkt(1000, seq + 4));
    EXPECT_EQ(p.seq, seq);
  });
  for (int i = 0; i < 4; ++i) link.send(pkt(1000, i));
  sim.run();
  std::vector<std::int64_t> expected(24);
  for (int i = 0; i < 24; ++i) expected[static_cast<size_t>(i)] = i;
  EXPECT_EQ(order, expected);
  EXPECT_EQ(link.in_flight().capacity(), 4u);  // never more than 4 in flight
}

}  // namespace
}  // namespace burst
