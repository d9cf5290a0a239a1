#include "src/net/drop_tail_queue.hpp"

#include <gtest/gtest.h>

namespace burst {
namespace {

Packet pkt(std::int64_t seq) {
  Packet p;
  p.seq = seq;
  p.size_bytes = 1040;
  return p;
}

TEST(DropTailQueue, FifoOrder) {
  DropTailQueue q(10);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.enqueue(pkt(i), 0.0));
  Packet out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.dequeue(0.0, out));
    EXPECT_EQ(out.seq, i);
  }
  EXPECT_FALSE(q.dequeue(0.0, out));
}

TEST(DropTailQueue, DropsWhenFull) {
  DropTailQueue q(3);
  EXPECT_TRUE(q.enqueue(pkt(0), 0.0));
  EXPECT_TRUE(q.enqueue(pkt(1), 0.0));
  EXPECT_TRUE(q.enqueue(pkt(2), 0.0));
  EXPECT_FALSE(q.enqueue(pkt(3), 0.0));
  EXPECT_EQ(q.len(), 3u);
  EXPECT_EQ(q.stats().arrivals, 4u);
  EXPECT_EQ(q.stats().drops, 1u);
  EXPECT_EQ(q.stats().forced_drops, 1u);
}

TEST(DropTailQueue, DequeueFreesCapacity) {
  DropTailQueue q(1);
  EXPECT_TRUE(q.enqueue(pkt(0), 0.0));
  EXPECT_FALSE(q.enqueue(pkt(1), 0.0));
  Packet out;
  EXPECT_TRUE(q.dequeue(0.0, out));
  EXPECT_TRUE(q.enqueue(pkt(2), 0.0));
}

TEST(DropTailQueue, StatsCountDepartures) {
  DropTailQueue q(10);
  q.enqueue(pkt(0), 0.0);
  q.enqueue(pkt(1), 0.0);
  Packet out;
  q.dequeue(0.0, out);
  EXPECT_EQ(q.stats().departures, 1u);
  EXPECT_EQ(q.len(), 1u);
}

TEST(DropTailQueue, LossFraction) {
  DropTailQueue q(2);
  q.enqueue(pkt(0), 0.0);
  q.enqueue(pkt(1), 0.0);
  q.enqueue(pkt(2), 0.0);
  q.enqueue(pkt(3), 0.0);
  EXPECT_DOUBLE_EQ(q.stats().loss_fraction(), 0.5);
}

TEST(DropTailQueue, ArrivalTapSeesAcceptedAndDropped) {
  DropTailQueue q(1);
  int arrivals = 0, drops = 0;
  q.taps().add_arrival_listener([&](const Packet&, Time) { ++arrivals; });
  q.taps().add_drop_listener([&](const Packet&, Time) { ++drops; });
  q.enqueue(pkt(0), 0.0);
  q.enqueue(pkt(1), 0.0);  // dropped
  EXPECT_EQ(arrivals, 2);
  EXPECT_EQ(drops, 1);
}

TEST(DropTailQueue, DropTapReceivesTheDroppedPacket) {
  DropTailQueue q(1);
  std::int64_t dropped_seq = -1;
  q.taps().add_drop_listener([&](const Packet& p, Time) { dropped_seq = p.seq; });
  q.enqueue(pkt(10), 0.0);
  q.enqueue(pkt(11), 0.0);
  EXPECT_EQ(dropped_seq, 11);
}

TEST(DropTailQueue, ZeroCapacityDropsEverything) {
  DropTailQueue q(0);
  EXPECT_FALSE(q.enqueue(pkt(0), 0.0));
  EXPECT_TRUE(q.queue_empty());
}

}  // namespace
}  // namespace burst
