// PacketFifo: the ring every queue discipline and every link stores its
// packets in. Order must survive wrap-around and growth from any head
// position, pop_back must take the newest packet of a wrapped ring (DRR's
// longest-queue drop), and nothing is allocated before the first push.
#include "src/net/packet_fifo.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/net/drop_tail_queue.hpp"
#include "src/net/drr_queue.hpp"
#include "src/net/red_queue.hpp"

namespace burst {
namespace {

Packet pkt(std::int64_t seq) {
  Packet p;
  p.seq = seq;
  p.size_bytes = 1040;
  return p;
}

std::vector<std::int64_t> drain(PacketFifo& f) {
  std::vector<std::int64_t> seqs;
  while (!f.empty()) {
    seqs.push_back(f.front().seq);
    f.pop_front();
  }
  return seqs;
}

TEST(PacketFifo, AllocatesNothingBeforeTheFirstPush) {
  PacketFifo f;
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.capacity(), 0u);
  f.push_back(pkt(0));
  EXPECT_EQ(f.capacity(), PacketFifo::kInitialSlots);
}

TEST(PacketFifo, GrowsByDoublingFromTheInitialBlock) {
  PacketFifo f;
  std::vector<std::size_t> caps;
  for (int i = 0; i < 17; ++i) {
    f.push_back(pkt(i));
    if (caps.empty() || caps.back() != f.capacity()) {
      caps.push_back(f.capacity());
    }
  }
  ASSERT_FALSE(caps.empty());
  EXPECT_EQ(caps.front(), PacketFifo::kInitialSlots);
  for (std::size_t i = 1; i < caps.size(); ++i) {
    EXPECT_EQ(caps[i], 2 * caps[i - 1]);
  }
  // The last doubling is the first that holds all 17.
  EXPECT_GE(caps.back(), 17u);
  EXPECT_LT(caps.back() / 2, 17u);
  EXPECT_EQ(f.size(), 17u);
}

TEST(PacketFifo, KeepsFifoOrderAcrossWrapAround) {
  PacketFifo f;
  std::int64_t next_in = 0;
  std::int64_t next_out = 0;
  // Three packets stay buffered while 100 more cycle through, so the
  // head and the tail wrap a 4-slot ring many times without growing.
  for (int i = 0; i < 3; ++i) f.push_back(pkt(next_in++));
  for (int i = 0; i < 100; ++i) {
    f.push_back(pkt(next_in++));
    ASSERT_EQ(f.front().seq, next_out++);
    f.pop_front();
    EXPECT_EQ(f.back().seq, next_in - 1);
  }
  EXPECT_EQ(f.capacity(), 4u);
  EXPECT_EQ(drain(f), (std::vector<std::int64_t>{100, 101, 102}));
}

TEST(PacketFifo, KeepsFifoOrderAcrossGrowthFromAWrappedHead) {
  PacketFifo f;
  for (int i = 0; i < 4; ++i) f.push_back(pkt(i));
  f.pop_front();
  f.pop_front();
  f.push_back(pkt(4));
  f.push_back(pkt(5));  // full again, head at slot 2, tail wrapped
  ASSERT_EQ(f.capacity(), 4u);
  for (int i = 6; i < 12; ++i) f.push_back(pkt(i));  // grows to 16
  EXPECT_EQ(f.capacity(), 16u);
  EXPECT_EQ(f.front().seq, 2);
  EXPECT_EQ(f.back().seq, 11);
  EXPECT_EQ(drain(f),
            (std::vector<std::int64_t>{2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
}

TEST(PacketFifo, PopBackTakesTheNewestPacketOfAWrappedRing) {
  PacketFifo f;
  for (int i = 0; i < 4; ++i) f.push_back(pkt(i));
  f.pop_front();
  f.pop_front();
  f.pop_front();
  f.push_back(pkt(4));
  f.push_back(pkt(5));  // slots: 5 at 1, 4 at 0, 3 at 3 (head)
  ASSERT_EQ(f.capacity(), 4u);
  EXPECT_EQ(f.back().seq, 5);
  f.pop_back();
  EXPECT_EQ(f.back().seq, 4);
  f.pop_back();
  EXPECT_EQ(f.back().seq, 3);  // back across the wrap to the head
  EXPECT_EQ(f.front().seq, 3);
  f.push_back(pkt(6));  // the popped slots are reused in order
  EXPECT_EQ(drain(f), (std::vector<std::int64_t>{3, 6}));
}

TEST(PacketFifo, EmplaceBackReturnsTheNewBackSlot) {
  PacketFifo f;
  f.push_back(pkt(1));
  Packet& slot = f.emplace_back();
  slot = pkt(2);
  slot.flow = 9;
  EXPECT_EQ(&f.back(), &slot);
  EXPECT_EQ(f.size(), 2u);
  f.pop_front();
  EXPECT_EQ(f.front().seq, 2);
  EXPECT_EQ(f.front().flow, 9);
}

// A queue's storage follows its occupancy, never its bound B: a bound far
// beyond what memory could hold costs nothing until packets arrive.
TEST(PacketFifo, QueuesDoNotSizeStorageFromTheirBound) {
  constexpr std::size_t kHugeBound = std::size_t{1} << 40;
  DropTailQueue drop_tail(kHugeBound);
  RedConfig red_cfg;
  red_cfg.capacity = kHugeBound;
  RedQueue red(red_cfg, Random(1));
  DrrConfig drr_cfg;
  drr_cfg.capacity = kHugeBound;
  DrrQueue drr(drr_cfg);
  for (Queue* q : std::vector<Queue*>{&drop_tail, &red, &drr}) {
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(q->enqueue(pkt(i), 0.0));
    Packet out;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(q->dequeue(0.0, out));
      EXPECT_EQ(out.seq, i);
    }
    EXPECT_FALSE(q->dequeue(0.0, out));
  }
}

}  // namespace
}  // namespace burst
