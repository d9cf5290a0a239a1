#include "src/transport/tcp_tahoe.hpp"

#include <gtest/gtest.h>

#include "tests/transport_harness.hpp"

namespace burst {
namespace {

using testing::LinkParams;
using testing::TcpHarness;

TEST(TcpTahoe, DeliversReliably) {
  TcpHarness h;
  auto* s = h.make_sender<TcpTahoe>();
  s->app_send(100);
  h.sim.run();
  EXPECT_EQ(h.sink->rcv_nxt(), 100);
  EXPECT_EQ(s->stats().timeouts, 0u);
}

TEST(TcpTahoe, SlowStartGrowth) {
  TcpHarness h;
  auto* s = h.make_sender<TcpTahoe>();
  s->app_send(1000);
  const Time rtt = h.rtt();
  h.sim.run(2.5 * rtt);
  EXPECT_GE(s->cwnd(), 3.0);
}

TEST(TcpTahoe, LossResetsWindowToOne) {
  LinkParams fwd;
  fwd.queue_capacity = 6;
  TcpHarness h(1, fwd);
  auto* s = h.make_sender<TcpTahoe>();
  s->app_send(12);
  h.sim.run(1.0);
  testing::CwndRecorder recorder(*s);
  s->app_send(12);
  h.sim.run(30.0);
  ASSERT_GE(s->stats().fast_retransmits + s->stats().timeouts, 1u);
  const TraceSeries trace = recorder.series();
  bool saw_one = false;
  for (const auto& [t, w] : trace.points()) saw_one |= (w == 1.0);
  EXPECT_TRUE(saw_one);  // Tahoe always re-slow-starts
  EXPECT_EQ(h.sink->rcv_nxt(), 24);
}

TEST(TcpTahoe, RecoversFromRepeatedLoss) {
  LinkParams fwd;
  fwd.queue_capacity = 2;
  TcpHarness h(3, fwd);
  auto* s = h.make_sender<TcpTahoe>();
  s->app_send(150);
  h.sim.run(200.0);
  EXPECT_EQ(h.sink->rcv_nxt(), 150);
  EXPECT_EQ(s->backlog(), 0);
}

TEST(TcpTahoe, NoFastRecoveryInflation) {
  // After a fast retransmit Tahoe's window is 1, never ssthresh+3.
  LinkParams fwd;
  fwd.queue_capacity = 6;
  TcpHarness h(1, fwd);
  auto* s = h.make_sender<TcpTahoe>();
  s->app_send(12);
  h.sim.run(1.0);
  s->app_send(12);
  // Poll right after the first fast retransmit.
  while (s->stats().fast_retransmits == 0 && h.sim.now() < 10.0) {
    h.sim.run(h.sim.now() + 0.001);
  }
  if (s->stats().fast_retransmits > 0) {
    EXPECT_LE(s->cwnd(), 2.0);
  }
  h.sim.run(30.0);
  EXPECT_EQ(h.sink->rcv_nxt(), 24);
}

}  // namespace
}  // namespace burst
