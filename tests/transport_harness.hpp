// Shared two-node test harness: one TCP (or UDP) sender on node 0 talking
// to a sink on node 1 over a configurable bottleneck link, with an
// uncongested reverse path for ACKs.
#pragma once

#include <memory>

#include "src/net/drop_tail_queue.hpp"
#include "src/net/node.hpp"
#include "src/obs/transport_trace.hpp"
#include "src/sim/simulator.hpp"
#include "src/transport/tcp_sender.hpp"
#include "src/transport/tcp_sink.hpp"

namespace burst::testing {

struct LinkParams {
  double bandwidth_bps = 10e6;
  Time delay = 0.010;             // one-way; RTT = 2*delay + tx times
  std::size_t queue_capacity = 1000;
};

class TcpHarness {
 public:
  explicit TcpHarness(std::uint64_t seed = 1, LinkParams fwd = {},
                      TcpSinkConfig sink_cfg = {})
      : sim(seed),
        a(0),
        b(1),
        ab(sim, std::make_unique<DropTailQueue>(fwd.queue_capacity),
           fwd.bandwidth_bps, fwd.delay),
        ba(sim, std::make_unique<DropTailQueue>(10000), fwd.bandwidth_bps,
           fwd.delay) {
    ab.set_receiver([this](const Packet& p) { b.receive(p); });
    ba.set_receiver([this](const Packet& p) { a.receive(p); });
    a.add_route(Node::kDefaultRoute, &ab);
    b.add_route(Node::kDefaultRoute, &ba);
    sink = std::make_unique<TcpSink>(sim, b, /*flow=*/0, /*peer=*/0, sink_cfg);
  }

  /// Creates the sender (any TcpSender subclass) attached to node a.
  template <typename T, typename... Args>
  T* make_sender(Args&&... args) {
    auto owned = std::make_unique<T>(sim, a, /*flow=*/0, /*peer=*/1,
                                     std::forward<Args>(args)...);
    T* raw = owned.get();
    sender = std::move(owned);
    return raw;
  }

  /// Round-trip propagation+transmission time for a full data packet.
  Time rtt(int wire_bytes = 1040) const {
    return 2 * 0.010 + transmission_time(wire_bytes, 10e6) +
           transmission_time(kAckBytes, 10e6);
  }

  Simulator sim;
  Node a, b;
  SimplexLink ab, ba;
  std::unique_ptr<TcpSender> sender;
  std::unique_ptr<TcpSink> sink;
};

/// Records a sender's window changes from construction on, the way a
/// traced run does: a TransportTracer feeding an event trace, read back
/// with TraceSink::cwnd_series.
class CwndRecorder {
 public:
  explicit CwndRecorder(TcpSender& sender)
      : sender_(sender), tracer_(sink_, sender) {
    sender.set_observer(&tracer_);
  }

  TraceSeries series() const { return sink_.cwnd_series(sender_.flow(), "w"); }

 private:
  const TcpSender& sender_;
  TraceSink sink_;
  TransportTracer tracer_;
};

}  // namespace burst::testing
