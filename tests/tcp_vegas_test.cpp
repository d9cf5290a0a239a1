#include "src/transport/tcp_vegas.hpp"

#include <gtest/gtest.h>

#include "src/transport/tcp_reno.hpp"
#include "tests/transport_harness.hpp"

namespace burst {
namespace {

using testing::LinkParams;
using testing::TcpHarness;

TEST(TcpVegas, DeliversReliably) {
  TcpHarness h;
  auto* s = h.make_sender<TcpVegas>();
  s->app_send(100);
  h.sim.run();
  EXPECT_EQ(h.sink->rcv_nxt(), 100);
}

TEST(TcpVegas, BaseRttTracksMinimum) {
  TcpHarness h;
  auto* s = h.make_sender<TcpVegas>();
  s->app_send(50);
  h.sim.run();
  // Uncongested path: baseRTT ~ 2*10ms + tx times.
  EXPECT_GT(s->base_rtt(), 0.02);
  EXPECT_LT(s->base_rtt(), 0.03);
}

TEST(TcpVegas, WindowSettlesNearPipeSizePlusAlphaBeta) {
  // A greedy Vegas flow on an uncongested path should hold cwnd near the
  // bandwidth-delay product + [alpha, beta] queued packets, not balloon to
  // the advertised window like Reno.
  TcpConfig cfg;
  cfg.advertised_window = 300.0;
  LinkParams fwd;
  fwd.bandwidth_bps = 2e6;  // BDP = 2e6/8 * ~0.024s / 1040 ~ 5.8 packets
  TcpHarness h(1, fwd);
  auto* s = h.make_sender<TcpVegas>(cfg);
  s->app_send(100000);
  h.sim.run(30.0);
  EXPECT_FALSE(s->in_slow_start());
  const double bdp = 2e6 / 8.0 * s->base_rtt() / 1040.0;
  EXPECT_GE(s->cwnd(), bdp - 1.0);
  EXPECT_LE(s->cwnd(), bdp + 5.0);
  // And the queue estimate sits within [alpha, beta] (plus slack).
  EXPECT_LE(s->last_diff(), 4.0);
}

TEST(TcpVegas, NoLossOnSelfInducedCongestion) {
  // On a private bottleneck with ample buffer, Vegas's early backoff
  // avoids losses entirely, where Reno would fill the buffer and drop.
  LinkParams fwd;
  fwd.bandwidth_bps = 2e6;
  fwd.queue_capacity = 30;
  TcpConfig cfg;
  cfg.advertised_window = 64.0;
  {
    TcpHarness h(1, fwd);
    auto* v = h.make_sender<TcpVegas>(cfg);
    v->app_send(100000);
    h.sim.run(30.0);
    EXPECT_EQ(h.ab.queue().stats().drops, 0u);
    EXPECT_EQ(v->stats().timeouts, 0u);
  }
  {
    TcpHarness h(1, fwd);
    auto* r = h.make_sender<TcpReno>(cfg);
    r->app_send(100000);
    h.sim.run(30.0);
    EXPECT_GT(h.ab.queue().stats().drops, 0u);  // Reno probes until loss
  }
}

TEST(TcpVegas, SlowStartExitsViaGamma) {
  LinkParams fwd;
  fwd.bandwidth_bps = 2e6;
  TcpHarness h(1, fwd);
  auto* s = h.make_sender<TcpVegas>();
  s->app_send(100000);
  h.sim.run(10.0);
  EXPECT_FALSE(s->in_slow_start());
  EXPECT_EQ(s->stats().timeouts, 0u);  // exit was proactive, not loss-driven
}

TEST(TcpVegas, AppLimitedWindowDoesNotBalloon) {
  // A thin flow (few packets per RTT) must keep cwnd near its usage, not
  // grow toward the advertised window: the paper's Figs 10-12 show Vegas
  // windows pinned at small values.
  TcpHarness h;
  auto* s = h.make_sender<TcpVegas>();
  // ~5 packets per RTT (~24ms): send 5 every 24 ms for a while.
  for (int i = 0; i < 400; ++i) {
    h.sim.schedule(i * 0.024, [s] { s->app_send(5); });
  }
  h.sim.run(15.0);
  EXPECT_LT(s->cwnd(), 12.0);
  EXPECT_EQ(h.sink->rcv_nxt(), 2000);
}

TEST(TcpVegas, GentlerLossReactionThanReno) {
  LinkParams fwd;
  fwd.queue_capacity = 6;
  TcpHarness h(1, fwd);
  auto* s = h.make_sender<TcpVegas>();
  s->app_send(12);
  h.sim.run(1.0);
  testing::CwndRecorder recorder(*s);
  s->app_send(14);
  h.sim.run(30.0);
  const TraceSeries trace = recorder.series();
  EXPECT_EQ(h.sink->rcv_nxt(), 26);
  // If a fast retransmit happened, the cut was 3/4, not 1/2: the minimum
  // traced window right after a cut is >= 0.7 * the preceding maximum,
  // unless a timeout (cwnd=2) occurred.
  if (s->stats().fast_retransmits > 0 && s->stats().timeouts == 0) {
    double w_max = 0.0, w_after_cut = 1e9;
    for (std::size_t i = 1; i < trace.points().size(); ++i) {
      const double prev = trace.points()[i - 1].second;
      const double cur = trace.points()[i].second;
      if (cur < prev) {  // a cut
        w_max = std::max(w_max, prev);
        w_after_cut = std::min(w_after_cut, cur / prev);
      }
    }
    EXPECT_GE(w_after_cut, 0.70);
  }
}

TEST(TcpVegas, ReliableUnderHeavyLossProperty) {
  for (std::size_t cap : {1u, 2u, 4u, 8u}) {
    LinkParams fwd;
    fwd.queue_capacity = cap;
    TcpHarness h(13, fwd);
    auto* s = h.make_sender<TcpVegas>();
    s->app_send(200);
    h.sim.run(300.0);
    EXPECT_EQ(h.sink->rcv_nxt(), 200) << "cap " << cap;
  }
}

// A receiver window no flow can fill, behind a one-packet queue: Vegas's
// fine retransmit reads the send-time ring while packets are lost and
// resent, every packet arrives, and the ring stays sized by the flight.
TEST(TcpVegas, UnfillableAdvertisedWindowUnderLoss) {
  for (const double window : {1e12, 1e19}) {
    TcpConfig cfg;
    cfg.advertised_window = window;
    LinkParams fwd;
    fwd.queue_capacity = 1;
    TcpHarness h(13, fwd);
    auto* s = h.make_sender<TcpVegas>(cfg);
    s->app_send(300);
    h.sim.run(300.0);
    EXPECT_EQ(h.sink->rcv_nxt(), 300) << "window " << window;
    EXPECT_GT(s->stats().retransmits, 0u) << "window " << window;
    EXPECT_LE(s->send_ring_bytes(), 512 * sizeof(Time)) << "window " << window;
  }
}

TEST(TcpVegas, CustomAlphaBetaShiftEquilibrium) {
  // Larger alpha/beta -> more packets kept in the queue -> larger cwnd.
  LinkParams fwd;
  fwd.bandwidth_bps = 2e6;
  double cwnd_small, cwnd_large;
  {
    TcpHarness h(1, fwd);
    auto* s = h.make_sender<TcpVegas>(TcpConfig{}, VegasConfig{1, 3, 1});
    s->app_send(100000);
    h.sim.run(30.0);
    cwnd_small = s->cwnd();
  }
  {
    TcpHarness h(1, fwd);
    auto* s = h.make_sender<TcpVegas>(TcpConfig{}, VegasConfig{4, 6, 1});
    s->app_send(100000);
    h.sim.run(30.0);
    cwnd_large = s->cwnd();
  }
  EXPECT_GT(cwnd_large, cwnd_small);
}

}  // namespace
}  // namespace burst
