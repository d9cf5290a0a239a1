// Behavior under packet *reordering* (as opposed to loss): spurious dup
// ACKs must not break reliability, and SACK must not mis-mark data.
// A hand-driven two-node setup delivers selected packets out of order.
#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "src/net/drop_tail_queue.hpp"
#include "src/net/node.hpp"
#include "src/sim/simulator.hpp"
#include "src/transport/tcp_reno.hpp"
#include "src/transport/tcp_sack.hpp"
#include "src/transport/tcp_sink.hpp"
#include "src/transport/tcp_vegas.hpp"

namespace burst {
namespace {

// Harness whose forward path swaps each k-th packet with its successor,
// introducing reordering without loss.
struct ReorderHarness {
  Simulator sim{1};
  Node a{0}, b{1};
  SimplexLink ba{sim, std::make_unique<DropTailQueue>(10000), 10e6, 0.010};
  std::unique_ptr<TcpSender> sender;
  std::unique_ptr<TcpSink> sink;

  int swap_every;          // swap packet i with i+1 when i % swap_every == 0
  std::int64_t count = 0;
  std::deque<Packet> held;

  explicit ReorderHarness(int swap_every_n, TcpSinkConfig sink_cfg = {})
      : swap_every(swap_every_n) {
    ba.set_receiver([this](const Packet& p) { a.receive(p); });
    b.add_route(Node::kDefaultRoute, &ba);
    sink = std::make_unique<TcpSink>(sim, b, 0, 0, sink_cfg);
  }

  // Installs the reordering forward path; must be called after the sender
  // exists (gmock-free manual wiring).
  void wire(TcpSender* s) {
    sender.reset(s);
    // Intercept at the node level: route through a tiny shim link that
    // delivers through our reordering function, holding every
    // swap_every-th data packet back one packet.
    static_link = std::make_unique<SimplexLink>(
        sim, std::make_unique<DropTailQueue>(10000), 10e6, 0.010);
    static_link->set_receiver([this](const Packet& p) { deliver(p); });
    a.add_route(Node::kDefaultRoute, static_link.get());
  }

  void deliver(const Packet& p) {
    if (p.type != PacketType::kData) {
      b.receive(p);
      return;
    }
    ++count;
    if (swap_every > 0 && count % swap_every == 0) {
      held.push_back(p);  // hold this one until the next data packet
      return;
    }
    b.receive(p);
    while (!held.empty()) {
      b.receive(held.front());
      held.pop_front();
    }
  }

  void flush_held() {
    while (!held.empty()) {
      b.receive(held.front());
      held.pop_front();
    }
  }

  std::unique_ptr<SimplexLink> static_link;
};

TEST(Reordering, RenoSurvivesMildReordering) {
  ReorderHarness h(7);
  auto* s = new TcpReno(h.sim, h.a, 0, 1);
  h.wire(s);
  s->app_send(300);
  h.sim.run(60.0);
  h.flush_held();
  h.sim.run(120.0);
  EXPECT_EQ(h.sink->rcv_nxt(), 300);
  // Reordering by one position creates at most 1-2 dup ACKs per event:
  // below the dupack threshold, so no spurious timeouts are *required*.
  EXPECT_EQ(h.sink->stats().out_of_order,
            h.sink->stats().out_of_order);  // smoke: counter exists
  EXPECT_GT(h.sink->stats().out_of_order, 0u);
}

TEST(Reordering, SpuriousRetransmissionsAreBounded) {
  ReorderHarness h(5);
  auto* s = new TcpReno(h.sim, h.a, 0, 1);
  h.wire(s);
  s->app_send(500);
  h.sim.run(120.0);
  h.flush_held();
  h.sim.run(240.0);
  EXPECT_EQ(h.sink->rcv_nxt(), 500);
  // One-position reordering generates < 3 dupacks per event; only the
  // occasional coincidence can trigger fast retransmit. Allow a small
  // number of spurious retransmissions, not a flood.
  EXPECT_LT(s->stats().retransmits, 50u);
}

TEST(Reordering, SackHandlesReorderingWithoutFalseHoles) {
  TcpSinkConfig cfg;
  cfg.sack = true;
  ReorderHarness h(6, cfg);
  auto* s = new TcpSack(h.sim, h.a, 0, 1);
  h.wire(s);
  s->app_send(400);
  h.sim.run(120.0);
  h.flush_held();
  h.sim.run(240.0);
  EXPECT_EQ(h.sink->rcv_nxt(), 400);
  EXPECT_EQ(s->scoreboard_size(), 0u);
  EXPECT_LT(s->stats().retransmits, 50u);
}

TEST(Reordering, VegasFineCheckToleratesReordering) {
  ReorderHarness h(6);
  auto* s = new TcpVegas(h.sim, h.a, 0, 1);
  h.wire(s);
  s->app_send(400);
  h.sim.run(120.0);
  h.flush_held();
  h.sim.run(240.0);
  EXPECT_EQ(h.sink->rcv_nxt(), 400);
  EXPECT_EQ(s->stats().timeouts, 0u);  // reordering must not cause RTOs
}

}  // namespace
}  // namespace burst
