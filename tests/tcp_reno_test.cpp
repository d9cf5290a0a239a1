#include "src/transport/tcp_reno.hpp"

#include <gtest/gtest.h>

#include "tests/transport_harness.hpp"

namespace burst {
namespace {

using testing::LinkParams;
using testing::TcpHarness;

TEST(TcpReno, SlowStartDoublesPerRtt) {
  TcpHarness h;
  auto* s = h.make_sender<TcpReno>();
  s->app_send(1000);  // saturate so the window binds
  // After k RTTs of slow start, cwnd ~ 2^k (ACK per packet, +1 per ACK).
  const Time rtt = h.rtt();
  h.sim.run(0.5 * rtt);
  EXPECT_NEAR(s->cwnd(), 1.0, 0.01);
  h.sim.run(1.5 * rtt);
  EXPECT_NEAR(s->cwnd(), 2.0, 0.5);
  h.sim.run(2.5 * rtt);
  EXPECT_NEAR(s->cwnd(), 4.0, 1.0);
  h.sim.run(3.5 * rtt);
  EXPECT_NEAR(s->cwnd(), 8.0, 2.0);
}

TEST(TcpReno, CongestionAvoidanceIsLinear) {
  TcpConfig cfg;
  cfg.initial_ssthresh = 4.0;
  cfg.advertised_window = 1000.0;
  TcpHarness h(1, LinkParams{.bandwidth_bps = 100e6, .delay = 0.05});
  auto* s = h.make_sender<TcpReno>(cfg);
  s->app_send(100000);
  const Time rtt = 0.1;
  h.sim.run(2 * rtt + 0.01);  // reach ssthresh
  const double w0 = s->cwnd();
  ASSERT_GE(w0, 4.0);
  h.sim.run(h.sim.now() + 4 * rtt);
  const double w1 = s->cwnd();
  // ~ +1 packet per RTT in congestion avoidance.
  EXPECT_NEAR(w1 - w0, 4.0, 1.6);
}

TEST(TcpReno, FastRetransmitOnThreeDupacks) {
  LinkParams fwd;
  fwd.queue_capacity = 6;
  TcpHarness h(1, fwd);
  auto* s = h.make_sender<TcpReno>();
  s->app_send(12);
  h.sim.run(1.0);
  ASSERT_EQ(h.sink->rcv_nxt(), 12);
  const double w_before = s->cwnd();
  ASSERT_GE(w_before, 8.0);  // slow start opened it
  // A 30-packet backlog: the initial window-sized burst overflows the
  // 1+6 slots, and the stream continuing behind the hole generates the
  // duplicate ACKs that trigger fast retransmit.
  s->app_send(30);
  h.sim.run(2.0);
  EXPECT_GE(s->stats().fast_retransmits, 1u);
  h.sim.run(30.0);
  EXPECT_EQ(h.sink->rcv_nxt(), 42);
}

TEST(TcpReno, FastRecoveryHalvesWindow) {
  LinkParams fwd;
  fwd.queue_capacity = 6;
  TcpHarness h(1, fwd);
  auto* s = h.make_sender<TcpReno>();
  s->app_send(12);
  h.sim.run(1.0);
  const double w_before = s->cwnd();
  s->app_send(30);
  h.sim.run(30.0);
  ASSERT_GE(s->stats().fast_retransmits, 1u);
  // After recovery the window must sit well below the pre-loss value
  // (deflated to ssthresh = flight/2), modulo later growth.
  EXPECT_LT(s->ssthresh(), w_before);
}

TEST(TcpReno, TimeoutResetsToSlowStart) {
  LinkParams fwd;
  fwd.queue_capacity = 1;
  TcpHarness h(1, fwd);
  auto* s = h.make_sender<TcpReno>();
  s->app_send(3);
  h.sim.run(1.0);
  testing::CwndRecorder recorder(*s);
  s->app_send(6);  // burst overflows; tail loss -> timeout
  h.sim.run(30.0);
  ASSERT_GT(s->stats().timeouts, 0u);
  // The trace must contain a reset to 1.
  const TraceSeries trace = recorder.series();
  bool saw_one = false;
  for (const auto& [t, w] : trace.points()) saw_one |= (w == 1.0);
  EXPECT_TRUE(saw_one);
  EXPECT_EQ(h.sink->rcv_nxt(), 9);
}

TEST(TcpReno, WindowInflationDuringRecovery) {
  LinkParams fwd;
  fwd.queue_capacity = 8;
  TcpHarness h(1, fwd);
  auto* s = h.make_sender<TcpReno>();
  s->app_send(16);
  h.sim.run(1.0);
  s->app_send(20);
  // Catch the sender inside fast recovery at some point.
  bool saw_recovery = false;
  for (int i = 0; i < 2000 && !saw_recovery; ++i) {
    h.sim.run(h.sim.now() + 0.001);
    saw_recovery = s->in_fast_recovery();
  }
  EXPECT_TRUE(saw_recovery);
  h.sim.run(30.0);
  EXPECT_FALSE(s->in_fast_recovery());
  EXPECT_EQ(h.sink->rcv_nxt(), 36);
}

TEST(TcpReno, SsthreshNeverBelowTwo) {
  LinkParams fwd;
  fwd.queue_capacity = 1;
  TcpHarness h(1, fwd);
  auto* s = h.make_sender<TcpReno>();
  s->app_send(50);
  h.sim.run(60.0);
  EXPECT_GE(s->ssthresh(), 2.0);
  EXPECT_EQ(h.sink->rcv_nxt(), 50);
}

TEST(TcpReno, ReliableUnderHeavyLoss) {
  // Property: whatever the queue size, everything is eventually delivered.
  for (std::size_t cap : {1u, 2u, 4u, 8u}) {
    LinkParams fwd;
    fwd.queue_capacity = cap;
    TcpHarness h(7, fwd);
    auto* s = h.make_sender<TcpReno>();
    s->app_send(200);
    h.sim.run(300.0);
    EXPECT_EQ(h.sink->rcv_nxt(), 200) << "queue capacity " << cap;
    EXPECT_EQ(s->backlog(), 0);
  }
}

}  // namespace
}  // namespace burst
