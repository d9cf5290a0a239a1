// ScriptChannel: a programmable stand-in for a SimplexLink.
//
// Where a SimplexLink models bandwidth, queueing and propagation, a
// ScriptChannel delivers every packet after a fixed base delay — zero
// serialization time, so the arrival instants are exact arithmetic on the
// script — and applies per-packet *rules*: drop, extra delay (reordering)
// or ECN-mark. A rule selects a packet by sequence key: the Nth
// transmission of a given seq for data, of a given cumulative ack for
// ACKs. That is all a conformance script needs to steer a live
// TcpSender/TcpSink pair through any loss/reorder/marking pattern at
// exact simulated times.
//
// Delivery order for equal arrival times is the offer order (the
// simulator's scheduler is FIFO for ties), so scripts are deterministic
// by construction.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/net/channel.hpp"
#include "src/net/packet.hpp"
#include "src/sim/simulator.hpp"

namespace burst::testkit {

class ScriptChannel : public PacketChannel {
 public:
  /// Packets are delivered @p base_delay seconds after send() untouched
  /// by any rule.
  ScriptChannel(Simulator& sim, Time base_delay);

  /// Sets the far-end consumer. Must be set before traffic flows.
  void set_receiver(std::function<void(const Packet&)> rx) {
    receiver_ = std::move(rx);
  }

  // --- Rules ----------------------------------------------------------
  // The key of a data packet is its seq; of an ACK its cumulative ack.
  // @p occurrence selects which transmission carrying that key the rule
  // applies to (1-based; the first retransmission of seq k is
  // occurrence 2).
  ScriptChannel& drop_seq(std::int64_t seq, int occurrence = 1);
  ScriptChannel& delay_seq(std::int64_t seq, Time extra, int occurrence = 1);
  ScriptChannel& mark_seq(std::int64_t seq, int occurrence = 1);

  void send(const Packet& p) override;

  std::uint64_t offered() const { return offered_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t delivered() const { return delivered_; }

 private:
  enum class Action : std::uint8_t { kDrop, kDelay, kMark };
  struct Rule {
    std::int64_t seq;      // sequence key
    int occurrence;        // 1-based transmission count for that key
    Action action;
    Time extra = 0.0;      // kDelay only
    bool spent = false;    // every rule fires at most once
  };

  static std::int64_t key_of(const Packet& p) {
    return p.type == PacketType::kData ? p.seq : p.ack;
  }

  Simulator& sim_;
  Time base_delay_;
  std::function<void(const Packet&)> receiver_;
  std::vector<Rule> rules_;
  std::unordered_map<std::int64_t, int> seen_;  // transmissions per key
  std::uint64_t offered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t delivered_ = 0;
};

}  // namespace burst::testkit
