// TcpSink behavior in isolation: acks, out-of-order buffering, delayed
// acks. We drive the sink directly with hand-built packets and capture
// the acks it injects into its node.
#include "src/transport/tcp_sink.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "src/net/drop_tail_queue.hpp"
#include "src/sim/simulator.hpp"

namespace burst {
namespace {

struct SinkHarness {
  Simulator sim{1};
  Node server{1};
  // Loopback link capturing everything the sink transmits.
  SimplexLink out{sim, std::make_unique<DropTailQueue>(1000), 1e9, 0.0};
  std::vector<Packet> acks;
  std::unique_ptr<TcpSink> sink;

  explicit SinkHarness(TcpSinkConfig cfg = {}) {
    out.set_receiver([this](const Packet& p) { acks.push_back(p); });
    server.add_route(Node::kDefaultRoute, &out);
    sink = std::make_unique<TcpSink>(sim, server, 0, 0, cfg);
  }

  Packet data(std::int64_t seq, Time ts = 0.0, bool rexmit = false) {
    Packet p;
    p.type = PacketType::kData;
    p.flow = 0;
    p.src = 0;
    p.dst = 1;
    p.seq = seq;
    p.size_bytes = 1040;
    p.ts_echo = ts;
    p.retransmit = rexmit;
    return p;
  }
};

TEST(TcpSink, AcksEachInOrderPacketImmediately) {
  SinkHarness h;
  h.sink->handle(h.data(0));
  h.sink->handle(h.data(1));
  h.sim.run();
  ASSERT_EQ(h.acks.size(), 2u);
  EXPECT_EQ(h.acks[0].ack, 1);
  EXPECT_EQ(h.acks[1].ack, 2);
  EXPECT_EQ(h.acks[0].type, PacketType::kAck);
  EXPECT_EQ(h.acks[0].size_bytes, kAckBytes);
}

TEST(TcpSink, EchoesTimestampAndRetransmitFlag) {
  SinkHarness h;
  h.sink->handle(h.data(0, 0.123, true));
  h.sim.run();
  ASSERT_EQ(h.acks.size(), 1u);
  EXPECT_DOUBLE_EQ(h.acks[0].ts_echo, 0.123);
  EXPECT_TRUE(h.acks[0].retransmit);
}

TEST(TcpSink, OutOfOrderGeneratesDupAcks) {
  SinkHarness h;
  h.sink->handle(h.data(0));
  h.sink->handle(h.data(2));  // gap at 1
  h.sink->handle(h.data(3));
  h.sim.run();
  ASSERT_EQ(h.acks.size(), 3u);
  EXPECT_EQ(h.acks[0].ack, 1);
  EXPECT_EQ(h.acks[1].ack, 1);  // dup
  EXPECT_EQ(h.acks[2].ack, 1);  // dup
  EXPECT_EQ(h.sink->stats().dup_acks_sent, 2u);
  EXPECT_EQ(h.sink->stats().out_of_order, 2u);
}

TEST(TcpSink, GapFillAcksCumulatively) {
  SinkHarness h;
  h.sink->handle(h.data(0));
  h.sink->handle(h.data(2));
  h.sink->handle(h.data(3));
  h.sink->handle(h.data(1));  // fills the hole
  h.sim.run();
  ASSERT_EQ(h.acks.size(), 4u);
  EXPECT_EQ(h.acks[3].ack, 4);  // jumps over the buffered 2,3
  EXPECT_EQ(h.sink->rcv_nxt(), 4);
}

TEST(TcpSink, DuplicateDataReAcked) {
  SinkHarness h;
  h.sink->handle(h.data(0));
  h.sink->handle(h.data(0));  // duplicate
  h.sim.run();
  ASSERT_EQ(h.acks.size(), 2u);
  EXPECT_EQ(h.acks[1].ack, 1);
  EXPECT_EQ(h.sink->stats().duplicate_packets, 1u);
  EXPECT_EQ(h.sink->stats().unique_packets, 1u);
}

TEST(TcpSink, UniquePacketsCountOutOfOrderOnce) {
  SinkHarness h;
  h.sink->handle(h.data(2));
  h.sink->handle(h.data(2));
  h.sim.run();
  EXPECT_EQ(h.sink->stats().unique_packets, 1u);
  EXPECT_EQ(h.sink->stats().duplicate_packets, 1u);
}

TEST(TcpSink, DelayedAckCoalescesPairs) {
  TcpSinkConfig cfg;
  cfg.delayed_ack = true;
  SinkHarness h(cfg);
  h.sink->handle(h.data(0));
  h.sink->handle(h.data(1));
  h.sink->handle(h.data(2));
  h.sink->handle(h.data(3));
  h.sim.run();
  // 4 in-order packets -> 2 acks (one per pair), no timer needed.
  ASSERT_EQ(h.acks.size(), 2u);
  EXPECT_EQ(h.acks[0].ack, 2);
  EXPECT_EQ(h.acks[1].ack, 4);
}

TEST(TcpSink, DelayedAckTimerFiresForLonePacket) {
  TcpSinkConfig cfg;
  cfg.delayed_ack = true;
  SinkHarness h(cfg);
  h.sink->handle(h.data(0));
  h.sim.run(0.05);
  EXPECT_TRUE(h.acks.empty());  // still held
  h.sim.run(0.2);
  ASSERT_EQ(h.acks.size(), 1u);
  EXPECT_EQ(h.acks[0].ack, 1);
}

TEST(TcpSink, DelayedAckEchoesOlderTimestamp) {
  TcpSinkConfig cfg;
  cfg.delayed_ack = true;
  SinkHarness h(cfg);
  h.sink->handle(h.data(0, 0.100));
  h.sink->handle(h.data(1, 0.150));
  h.sim.run();
  ASSERT_EQ(h.acks.size(), 1u);
  // RFC 7323: echo the timestamp of the oldest unacknowledged segment.
  EXPECT_DOUBLE_EQ(h.acks[0].ts_echo, 0.100);
}

TEST(TcpSink, DelayedAckDisabledOnOutOfOrder) {
  TcpSinkConfig cfg;
  cfg.delayed_ack = true;
  SinkHarness h(cfg);
  h.sink->handle(h.data(0));  // delack armed
  h.sink->handle(h.data(2));  // out of order: must ack immediately
  h.sim.run(0.01);
  // The pending delack is flushed by the immediate dup ack.
  ASSERT_GE(h.acks.size(), 1u);
  EXPECT_EQ(h.acks.back().ack, 1);
  h.sim.run();
  EXPECT_EQ(h.acks.size(), 1u);  // and no extra timer ack later
}

TEST(TcpSink, IgnoresAcks) {
  SinkHarness h;
  Packet a;
  a.type = PacketType::kAck;
  h.sink->handle(a);
  h.sim.run();
  EXPECT_TRUE(h.acks.empty());
  EXPECT_EQ(h.sink->stats().data_arrivals, 0u);
}

}  // namespace
}  // namespace burst
