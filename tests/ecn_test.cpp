// ECN end-to-end: RED marking, sink echo, sender reaction.
#include <gtest/gtest.h>

#include "src/core/experiment.hpp"
#include "src/net/red_queue.hpp"
#include "src/transport/tcp_reno.hpp"
#include "src/transport/tcp_vegas.hpp"
#include "tests/transport_harness.hpp"

namespace burst {
namespace {

using testing::TcpHarness;

RedConfig marking_config() {
  RedConfig cfg;
  cfg.min_th = 2;
  cfg.max_th = 60;   // keep marking (not hard-drop) in play
  cfg.max_p = 1.0;   // aggressive marking once above min_th
  cfg.weight = 1.0;  // EWMA == instantaneous queue
  cfg.capacity = 10000;
  cfg.ecn = true;
  return cfg;
}

Packet data(bool ect) {
  Packet p;
  p.size_bytes = 1040;
  p.ecn_capable = ect;
  return p;
}

TEST(Ecn, RedMarksCapablePacketsInsteadOfDropping) {
  RedQueue q(marking_config(), Random(1));
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(q.enqueue(data(true), 0.0));
  EXPECT_EQ(q.stats().drops, 0u);
  EXPECT_GT(q.marks(), 0u);
  // Marked packets come out marked.
  bool saw_mark = false;
  for (Packet p; q.dequeue(0.0, p);) saw_mark |= p.ecn_marked;
  EXPECT_TRUE(saw_mark);
}

// The mark goes on the stored copy only: the packet leaves the queue
// marked, while the arrival tap, the drop tap and the queue_enqueue trace
// records report it as it was offered.
TEST(Ecn, RedMarksTheStoredCopyAndReportsThePacketAsOffered) {
  RedConfig cfg = marking_config();
  cfg.capacity = 30;  // the last 20 of 50 arrivals are forced drops
  RedQueue q(cfg, Random(1));
  TraceSink sink;
  q.set_trace(&sink, /*site=*/2);
  int tap_marked = 0;
  int drops_seen = 0;
  q.taps().add_arrival_listener(
      [&](const Packet& p, Time) { tap_marked += p.ecn_marked; });
  q.taps().add_drop_listener([&](const Packet& p, Time) {
    ++drops_seen;
    tap_marked += p.ecn_marked;
  });
  for (int i = 0; i < 50; ++i) {
    Packet p = data(true);
    p.seq = i;
    q.enqueue(p, 0.0);
  }
  ASSERT_GT(q.marks(), 0u);
  EXPECT_EQ(drops_seen, 20);
  EXPECT_EQ(tap_marked, 0);

  // One queue_enqueue record per accepted packet, built from the packet
  // as offered: its seq, no detail bits, the occupancy after storing it.
  std::int64_t next_seq = 0;
  for (const TraceRecord& r : sink.ordered()) {
    if (r.type != TraceEventType::kQueueEnqueue) continue;
    EXPECT_EQ(r.seq, next_seq);
    EXPECT_EQ(r.detail, 0);
    EXPECT_EQ(r.value, static_cast<double>(next_seq + 1));
    ++next_seq;
  }
  EXPECT_EQ(next_seq, 30);

  std::uint64_t left_marked = 0;
  for (Packet p; q.dequeue(0.0, p);) left_marked += p.ecn_marked;
  EXPECT_EQ(left_marked, q.marks());
}

TEST(Ecn, RedStillDropsNonCapablePackets) {
  RedQueue q(marking_config(), Random(1));
  int accepted = 0;
  for (int i = 0; i < 50; ++i) accepted += q.enqueue(data(false), 0.0);
  EXPECT_LT(accepted, 50);
  EXPECT_GT(q.stats().early_drops, 0u);
  EXPECT_EQ(q.marks(), 0u);
}

TEST(Ecn, SenderSetsEctOnlyWhenConfigured) {
  TcpHarness h;
  std::vector<bool> ect_seen;
  h.ab.queue().taps().add_arrival_listener(
      [&](const Packet& p, Time) { ect_seen.push_back(p.ecn_capable); });
  TcpConfig cfg;
  cfg.ecn = true;
  auto* s = h.make_sender<TcpReno>(cfg);
  s->app_send(3);
  h.sim.run();
  ASSERT_FALSE(ect_seen.empty());
  for (bool e : ect_seen) EXPECT_TRUE(e);
}

TEST(Ecn, EchoTravelsBackAndCutsWindow) {
  // Mark every data packet at the forward queue by hand and confirm the
  // sender reduces its window without any loss.
  TcpHarness h;
  TcpConfig cfg;
  cfg.ecn = true;
  auto* s = h.make_sender<TcpReno>(cfg);
  // Deliver marked copies directly to the sink.
  h.ab.set_receiver([&h](const Packet& p) {
    Packet marked = p;
    if (marked.type == PacketType::kData) marked.ecn_marked = true;
    h.b.receive(marked);
  });
  s->app_send(60);
  h.sim.run(3.0);
  EXPECT_GT(s->stats().ecn_echoes, 0u);
  EXPECT_GT(s->stats().ecn_reductions, 0u);
  EXPECT_EQ(h.ab.queue().stats().drops, 0u);
  EXPECT_EQ(s->stats().retransmits, 0u);  // cut without loss
  // Rate limiting: roughly one reduction per RTT over the 3 s run, far
  // fewer than the per-ACK echo count.
  EXPECT_LT(s->stats().ecn_reductions, 40u);
  EXPECT_LT(s->stats().ecn_reductions, s->stats().ecn_echoes / 2);
  h.sim.run(30.0);
  EXPECT_EQ(h.sink->rcv_nxt(), 60);
}

TEST(Ecn, EndToEndRenoRedEcnReducesLoss) {
  Scenario base = Scenario::paper_default();
  base.num_clients = 45;
  base.transport = Transport::kReno;
  base.gateway = GatewayQueue::kRed;
  base.duration = 10.0;
  const auto without = run_experiment(base);
  Scenario with_ecn = base;
  with_ecn.ecn = true;
  const auto with = run_experiment(with_ecn);
  EXPECT_LT(with.loss_pct, without.loss_pct);
  EXPECT_GT(with.delivered, without.delivered);
  EXPECT_LT(with.timeouts, without.timeouts);
}

TEST(Ecn, VegasReactsGentlyToMarks) {
  TcpHarness h;
  TcpConfig cfg;
  cfg.ecn = true;
  auto* s = h.make_sender<TcpVegas>(cfg);
  h.ab.set_receiver([&h](const Packet& p) {
    Packet marked = p;
    if (marked.type == PacketType::kData) marked.ecn_marked = true;
    h.b.receive(marked);
  });
  s->app_send(60);
  h.sim.run(30.0);
  EXPECT_GT(s->stats().ecn_reductions, 0u);
  EXPECT_EQ(h.sink->rcv_nxt(), 60);
  EXPECT_GE(s->cwnd(), 2.0);
}

}  // namespace
}  // namespace burst
