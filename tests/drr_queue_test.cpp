#include "src/net/drr_queue.hpp"

#include <gtest/gtest.h>

#include <map>

namespace burst {
namespace {

Packet pkt(FlowId flow, std::int64_t seq = 0, int bytes = 1040) {
  Packet p;
  p.flow = flow;
  p.seq = seq;
  p.size_bytes = bytes;
  return p;
}

DrrConfig cfg(std::size_t cap = 50, int quantum = 1040) {
  DrrConfig c;
  c.capacity = cap;
  c.quantum_bytes = quantum;
  return c;
}

TEST(DrrQueue, SingleFlowIsFifo) {
  DrrQueue q(cfg());
  for (int i = 0; i < 5; ++i) q.enqueue(pkt(1, i), 0.0);
  Packet out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.dequeue(0.0, out));
    EXPECT_EQ(out.seq, i);
  }
  EXPECT_FALSE(q.dequeue(0.0, out));
}

TEST(DrrQueue, RoundRobinAcrossFlows) {
  DrrQueue q(cfg());
  // 3 packets each for flows 1,2,3, enqueued flow-by-flow.
  for (FlowId f : {1, 2, 3}) {
    for (int i = 0; i < 3; ++i) q.enqueue(pkt(f, i), 0.0);
  }
  std::vector<FlowId> service_order;
  for (Packet p; q.dequeue(0.0, p);) service_order.push_back(p.flow);
  ASSERT_EQ(service_order.size(), 9u);
  // Equal-size packets, quantum = one packet: perfect interleaving.
  EXPECT_EQ(service_order,
            (std::vector<FlowId>{1, 2, 3, 1, 2, 3, 1, 2, 3}));
}

TEST(DrrQueue, ThroughputShareEqualUnderBacklog) {
  DrrQueue q(cfg(1000));
  for (int i = 0; i < 100; ++i) {
    q.enqueue(pkt(1, i), 0.0);
    q.enqueue(pkt(2, i), 0.0);
    q.enqueue(pkt(2, 100 + i), 0.0);  // flow 2 offers double
  }
  std::map<FlowId, int> served;
  Packet out;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(q.dequeue(0.0, out));
    ++served[out.flow];
  }
  // Fair share: both flows get ~half of the service.
  EXPECT_NEAR(served[1], 50, 1);
  EXPECT_NEAR(served[2], 50, 1);
}

TEST(DrrQueue, DeficitHandlesUnequalPacketSizes) {
  // Flow 1 sends 2x-size packets; with quantum = small size, byte shares
  // even out (flow 1 gets roughly half the packets of flow 2).
  DrrQueue q(cfg(1000, 500));
  for (int i = 0; i < 60; ++i) {
    q.enqueue(pkt(1, i, 1000), 0.0);
    q.enqueue(pkt(2, i, 500), 0.0);
  }
  std::map<FlowId, int> bytes;
  Packet out;
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(q.dequeue(0.0, out));
    bytes[out.flow] += out.size_bytes;
  }
  const double ratio =
      static_cast<double>(bytes[1]) / static_cast<double>(bytes[2]);
  EXPECT_NEAR(ratio, 1.0, 0.25);
}

TEST(DrrQueue, LongestQueueDropProtectsLightFlows) {
  DrrQueue q(cfg(10));
  // Flow 1 hogs the whole buffer.
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.enqueue(pkt(1, i), 0.0));
  // A light flow arriving at a full buffer displaces the hog.
  EXPECT_TRUE(q.enqueue(pkt(2, 0), 0.0));
  EXPECT_EQ(q.len(), 10u);
  EXPECT_EQ(q.stats().drops, 1u);
  // The hog trying to add more is rejected outright.
  EXPECT_FALSE(q.enqueue(pkt(1, 99), 0.0));
  EXPECT_EQ(q.stats().drops, 2u);
}

TEST(DrrQueue, DisplacedDropVisibleToTaps) {
  DrrQueue q(cfg(3));
  std::vector<FlowId> dropped_flows;
  q.taps().add_drop_listener(
      [&](const Packet& p, Time) { dropped_flows.push_back(p.flow); });
  for (int i = 0; i < 3; ++i) q.enqueue(pkt(1, i), 0.0);
  q.enqueue(pkt(2, 0), 0.0);  // displaces flow 1's tail
  ASSERT_EQ(dropped_flows.size(), 1u);
  EXPECT_EQ(dropped_flows[0], 1);
}

// Longest-queue drop pops the victim's tail from its (wrapped) ring and
// reports that packet, not the arrival, to the taps and the trace.
TEST(DrrQueue, DisplacedDropReportsTheDisplacedTailPacket) {
  DrrQueue q(cfg(3));
  TraceSink sink;
  q.set_trace(&sink, /*site=*/1);
  std::vector<std::pair<FlowId, std::int64_t>> dropped;
  q.taps().add_drop_listener([&](const Packet& p, Time) {
    dropped.emplace_back(p.flow, p.seq);
  });
  Packet out;
  for (int i = 0; i < 5; ++i) q.enqueue(pkt(1, i), 0.0);  // 3 fit
  for (int i = 0; i < 3; ++i) q.dequeue(0.0, out);
  for (int i = 5; i < 8; ++i) q.enqueue(pkt(1, i), 0.0);  // tail wraps
  dropped.clear();
  q.enqueue(pkt(2, 0), 0.0);  // displaces flow 1's tail, seq 7
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0], (std::pair<FlowId, std::int64_t>{1, 7}));

  const std::vector<TraceRecord> records = sink.ordered();
  ASSERT_GE(records.size(), 2u);
  const TraceRecord& drop = records[records.size() - 2];
  EXPECT_EQ(drop.type, TraceEventType::kQueueDrop);
  EXPECT_EQ(drop.detail, kTraceDropDisplaced);
  EXPECT_EQ(drop.flow, 1);
  EXPECT_EQ(drop.seq, 7);
  EXPECT_EQ(drop.value, 2.0);  // occupancy once the tail is gone
  EXPECT_EQ(records.back().type, TraceEventType::kQueueEnqueue);
  EXPECT_EQ(records.back().flow, 2);

  // Round robin over what is left: flow 1 keeps seqs 5 and 6.
  std::vector<std::pair<FlowId, std::int64_t>> served;
  while (q.dequeue(0.0, out)) served.emplace_back(out.flow, out.seq);
  EXPECT_EQ(served, (std::vector<std::pair<FlowId, std::int64_t>>{
                        {1, 5}, {2, 0}, {1, 6}}));
}

TEST(DrrQueue, ActiveFlowAccounting) {
  DrrQueue q(cfg());
  EXPECT_EQ(q.active_flows(), 0u);
  q.enqueue(pkt(1), 0.0);
  q.enqueue(pkt(2), 0.0);
  EXPECT_EQ(q.active_flows(), 2u);
  Packet out;
  q.dequeue(0.0, out);
  q.dequeue(0.0, out);
  EXPECT_EQ(q.active_flows(), 0u);
  EXPECT_TRUE(q.queue_empty());
}

TEST(DrrQueue, IdleFlowDoesNotBankDeficit) {
  DrrQueue q(cfg(1000, 1040));
  q.enqueue(pkt(1, 0), 0.0);
  Packet out;
  q.dequeue(0.0, out);  // flow 1 drains; its deficit must reset
  // Now both flows inject equally; service must stay fair.
  for (int i = 0; i < 20; ++i) {
    q.enqueue(pkt(1, i + 1), 0.0);
    q.enqueue(pkt(2, i), 0.0);
  }
  std::map<FlowId, int> served;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(q.dequeue(0.0, out));
    ++served[out.flow];
  }
  EXPECT_NEAR(served[1], 10, 1);
  EXPECT_NEAR(served[2], 10, 1);
}

TEST(DrrQueue, DepartureStats) {
  DrrQueue q(cfg());
  q.enqueue(pkt(1), 0.0);
  Packet out;
  q.dequeue(0.0, out);
  EXPECT_EQ(q.stats().departures, 1u);
  EXPECT_EQ(q.stats().arrivals, 1u);
}

}  // namespace
}  // namespace burst
