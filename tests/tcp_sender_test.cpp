// Tests of the TcpSender base machinery (via TcpReno, the reference
// policy): sequencing, window limiting, backlog, RTO timer behavior and
// Karn's rule.
#include "src/transport/tcp_sender.hpp"

#include <gtest/gtest.h>

#include "src/transport/tcp_reno.hpp"
#include "tests/transport_harness.hpp"

namespace burst {
namespace {

using testing::LinkParams;
using testing::TcpHarness;

TEST(TcpSender, DeliversInOrderReliably) {
  TcpHarness h;
  auto* s = h.make_sender<TcpReno>();
  s->app_send(50);
  h.sim.run();
  EXPECT_EQ(h.sink->rcv_nxt(), 50);
  EXPECT_EQ(s->snd_una(), 50);
  EXPECT_EQ(s->backlog(), 0);
  EXPECT_EQ(s->stats().timeouts, 0u);
}

// A fresh sender is in slow start from one packet with nothing sent, no
// RTT sample and no backoff, and its send-time ring holds no slots yet.
TEST(TcpSender, StartsInSlowStartWithNothingOutstanding) {
  TcpConfig cfg;
  cfg.initial_ssthresh = 10.0;
  TcpHarness h;
  auto* s = h.make_sender<TcpReno>(cfg);
  EXPECT_DOUBLE_EQ(s->cwnd(), kInitialCwnd);
  EXPECT_DOUBLE_EQ(s->ssthresh(), 10.0);
  EXPECT_EQ(s->snd_una(), 0);
  EXPECT_EQ(s->snd_nxt(), 0);
  EXPECT_EQ(s->snd_max(), 0);
  EXPECT_EQ(s->backlog(), 0);
  EXPECT_FALSE(s->rto_estimator().has_sample());
  EXPECT_EQ(s->rto_estimator().backoff_factor(), 1);
  EXPECT_EQ(s->send_ring_bytes(), 0u);
  EXPECT_EQ(s->cc_state(), "slow-start");
}

// The send-time ring grows with the window the sender actually put in
// flight. A receiver window of 20 keeps it at 32 slots; a window no flow
// can fill (which once sized the ring up front and could not be
// allocated) leaves it bounded by the 100 packets there were to send.
TEST(TcpSender, SendRingFollowsTheFlightNotTheAdvertisedWindow) {
  for (const double window : {20.0, 1e12, 1e19}) {
    TcpConfig cfg;
    cfg.advertised_window = window;
    TcpHarness h;
    auto* s = h.make_sender<TcpReno>(cfg);
    s->app_send(100);
    h.sim.run();
    EXPECT_EQ(h.sink->rcv_nxt(), 100) << "window " << window;
    const std::size_t slots = window < 100.0 ? 32 : 128;
    EXPECT_GT(s->send_ring_bytes(), 0u) << "window " << window;
    EXPECT_LE(s->send_ring_bytes(), slots * sizeof(Time))
        << "window " << window;
  }
}

TEST(TcpSender, InitialWindowSendsOnePacket) {
  TcpHarness h;
  auto* s = h.make_sender<TcpReno>();
  s->app_send(10);
  // Before any ACK returns, exactly cwnd=1 packet may be outstanding.
  EXPECT_EQ(s->flight(), 1);
  EXPECT_EQ(s->backlog(), 9);
}

TEST(TcpSender, RespectsAdvertisedWindow) {
  TcpConfig cfg;
  cfg.advertised_window = 4.0;
  TcpHarness h;
  auto* s = h.make_sender<TcpReno>(cfg);
  s->app_send(1000);
  // Let slow start open the congestion window well past awnd.
  h.sim.run(2.0);
  EXPECT_LE(s->flight(), 4);
  EXPECT_GT(s->cwnd(), 4.0);
}

TEST(TcpSender, BacklogDrainsAsWindowOpens) {
  TcpHarness h;
  auto* s = h.make_sender<TcpReno>();
  s->app_send(100);
  const auto backlog0 = s->backlog();
  h.sim.run(0.5);
  EXPECT_LT(s->backlog(), backlog0);
}

TEST(TcpSender, RetransmitsAfterTimeout) {
  // Tiny queue forces a loss of a packet with nothing after it -> RTO.
  LinkParams fwd;
  fwd.queue_capacity = 1;
  TcpHarness h(1, fwd);
  auto* s = h.make_sender<TcpReno>();
  // Open the window first so a burst can overflow the 1-slot queue.
  s->app_send(3);
  h.sim.run(1.0);
  ASSERT_EQ(h.sink->rcv_nxt(), 3);
  // Burst: cwnd is now ~4; send 4 at once, 1 in tx + 1 queued -> 2 dropped.
  s->app_send(4);
  h.sim.run(20.0);
  EXPECT_EQ(h.sink->rcv_nxt(), 7);  // eventually everything arrives
  EXPECT_GT(s->stats().retransmits, 0u);
}

TEST(TcpSender, RttSamplingFeedsEstimator) {
  TcpHarness h;
  auto* s = h.make_sender<TcpReno>();
  s->app_send(20);
  h.sim.run();
  EXPECT_GT(s->stats().rtt_samples, 0u);
  // RTT ~ 2*10ms + transmission; srtt must be in a sane band.
  EXPECT_GT(s->rto_estimator().srtt(), 0.015);
  EXPECT_LT(s->rto_estimator().srtt(), 0.1);
}

TEST(TcpSender, StatsCountAppAndDataPackets) {
  TcpHarness h;
  auto* s = h.make_sender<TcpReno>();
  s->app_send(25);
  h.sim.run();
  EXPECT_EQ(s->stats().app_packets, 25u);
  EXPECT_GE(s->stats().data_pkts_sent, 25u);
  EXPECT_EQ(s->stats().data_pkts_sent - s->stats().retransmits, 25u);
}

TEST(TcpSender, CwndTraceRecordsChanges) {
  TcpHarness h;
  auto* s = h.make_sender<TcpReno>();
  testing::CwndRecorder recorder(*s);
  s->app_send(30);
  h.sim.run();
  const TraceSeries trace = recorder.series();
  ASSERT_GE(trace.points().size(), 2u);
  // No point at t=0: the window held the initial cwnd (1) until the
  // first ACK, whose slow-start growth is the first change.
  EXPECT_GT(trace.points().front().first, 0.0);
  EXPECT_DOUBLE_EQ(trace.points().front().second, kInitialCwnd + 1.0);
  EXPECT_GT(trace.points().back().second, 1.0);  // grew
}

TEST(TcpSender, NoTrafficNoTimer) {
  TcpHarness h;
  auto* s = h.make_sender<TcpReno>();
  h.sim.run(10.0);
  EXPECT_EQ(s->stats().timeouts, 0u);
  EXPECT_EQ(s->stats().data_pkts_sent, 0u);
}

TEST(TcpSender, DupacksCounted) {
  LinkParams fwd;
  fwd.queue_capacity = 2;
  TcpHarness h(1, fwd);
  auto* s = h.make_sender<TcpReno>();
  s->app_send(4);
  h.sim.run(1.0);
  s->app_send(30);  // burst through a 2-slot queue: drops + dupacks
  h.sim.run(30.0);
  EXPECT_GT(s->stats().dupacks, 0u);
  EXPECT_EQ(h.sink->rcv_nxt(), 34);
}

TEST(TcpSender, KarnRetransmittedSegmentsDoNotSample) {
  LinkParams fwd;
  fwd.queue_capacity = 1;
  TcpHarness h(1, fwd);
  auto* s = h.make_sender<TcpReno>();
  s->app_send(40);
  h.sim.run(60.0);
  ASSERT_EQ(h.sink->rcv_nxt(), 40);
  // Every sample must come from a clean transmission: samples + tainted
  // acks <= new_acks, and there were retransmissions in this run.
  EXPECT_GT(s->stats().retransmits, 0u);
  EXPECT_LE(s->stats().rtt_samples, s->stats().new_acks);
}

TEST(TcpSender, SentAtTracksOutstandingPackets) {
  TcpHarness h;
  auto* s = h.make_sender<TcpReno>();
  s->app_send(1);
  EXPECT_NE(s->stats().data_pkts_sent, 0u);
  h.sim.run();
  EXPECT_EQ(s->snd_una(), 1);
}

}  // namespace
}  // namespace burst
