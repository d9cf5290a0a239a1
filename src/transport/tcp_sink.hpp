// TCP receiver: cumulative ACKs, out-of-order buffering, optional delayed
// acknowledgments (ACK every second segment or after 100 ms, whichever
// comes first — the "Reno/DelayAck" curve in the paper's Fig 2).
//
// An out-of-order or duplicate segment always triggers an immediate ACK,
// which is what produces the duplicate-ACK signal the senders rely on.
#pragma once

#include <cstdint>
#include <set>

#include "src/obs/trace.hpp"
#include "src/sim/timer.hpp"
#include "src/stats/running_stats.hpp"
#include "src/transport/agent.hpp"

namespace burst {

/// The delayed-ACK cap: a lone in-order segment is acknowledged at most
/// this long after it arrives (the standard 100 ms).
inline constexpr Time kDelackInterval = 0.1;

struct TcpSinkConfig {
  bool delayed_ack = false;
  bool sack = false;  // attach SACK blocks to (dup) ACKs
};

struct TcpSinkStats {
  std::uint64_t data_arrivals = 0;    // every data packet that got here
  std::uint64_t unique_packets = 0;   // first-time sequences (throughput)
  std::uint64_t duplicate_packets = 0;
  std::uint64_t out_of_order = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t dup_acks_sent = 0;
};

class TcpSink : public Agent {
 public:
  TcpSink(Simulator& sim, Node& node, FlowId flow, NodeId peer,
          TcpSinkConfig cfg = {});

  void app_send(int) override {}  // sinks do not send data
  void handle(const Packet& p) override;

  /// Next in-order sequence expected (== packets delivered in order).
  std::int64_t rcv_nxt() const { return rcv_nxt_; }
  const TcpSinkStats& stats() const { return stats_; }

  /// One-way delay of arriving data packets (transmission timestamp to
  /// arrival; includes queueing at the gateway).
  const RunningStats& delay() const { return delay_; }

  /// Attaches a structured-trace sink; every ACK sent is emitted as a
  /// kSinkAck record (one null check per ACK when unset).
  void set_trace(TraceSink* sink, std::uint8_t site = 0) {
    trace_ = sink;
    trace_site_ = site;
  }

 private:
  void send_ack();
  void arm_or_flush_delack(const Packet& p);
  /// Sends an immediate ACK triggered by @p p, folding in (not
  /// clobbering) the echo state of a pending delayed ACK.
  void flush_immediate(const Packet& p);

  TcpSinkConfig cfg_;
  std::int64_t rcv_nxt_ = 0;
  // What the next ACK echoes: the data timestamp, Karn's retransmit taint
  // and the ECN congestion-experienced mark.
  Time echo_ts_ = 0.0;
  bool echo_rexmit_ = false;
  bool echo_ece_ = false;
  bool delack_pending_ = false;  // an in-order segment awaits its ACK
  Timer delack_timer_;
  std::set<std::int64_t> ooo_;  // buffered out-of-order sequences

  TcpSinkStats stats_;
  RunningStats delay_;
  TraceSink* trace_ = nullptr;
  std::uint8_t trace_site_ = 0;
};

}  // namespace burst
