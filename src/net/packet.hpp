// The unit of transmission.
//
// Packets are small value types copied by value through the network, as in
// a packet-level simulator: there is no payload, only headers relevant to
// the protocols under study. Sequence/ack numbers are in units of packets
// (ns-2 style), which is what the paper's simulations used.
#pragma once

#include <cstdint>

#include "src/sim/time.hpp"

namespace burst {

enum class PacketType : std::uint8_t {
  kData,  // transport payload segment
  kAck,   // transport acknowledgment
};

/// Node identifier within a simulation.
using NodeId = int;

/// Flow identifier; a (sender agent, sink agent) pair shares one flow id.
using FlowId = int;

struct Packet {
  std::uint64_t uid = 0;      // unique per simulation, for tracing
  FlowId flow = -1;           // demultiplexing key at the destination node
  NodeId src = -1;
  NodeId dst = -1;
  PacketType type = PacketType::kData;
  int size_bytes = 0;         // wire size including headers

  std::int64_t seq = -1;      // packet-granularity sequence number
  std::int64_t ack = -1;      // cumulative ack: next expected seq
  Time ts_echo = 0.0;         // sender timestamp, echoed by the sink (RTTM)
  bool retransmit = false;    // marked on retransmissions (Karn's rule)

  // Explicit congestion notification (RFC 2481 era).
  bool ecn_capable = false;   // ECT: the flow understands marks
  bool ecn_marked = false;    // CE: an ECN gateway marked this packet
  bool ece = false;           // on ACKs: echo of a congestion mark

  // Selective acknowledgment (on ACKs): up to kMaxSackBlocks [lo, hi)
  // ranges of out-of-order data held by the receiver.
  static constexpr int kMaxSackBlocks = 3;
  struct SackBlock {
    std::int64_t lo = 0;
    std::int64_t hi = 0;  // exclusive
  };
  SackBlock sack[kMaxSackBlocks] = {};
  int sack_count = 0;
};

/// Default wire sizes used throughout the reproduction (see DESIGN.md §3).
inline constexpr int kHeaderBytes = 40;       // TCP/IP header
inline constexpr int kDefaultPayloadBytes = 1000;
inline constexpr int kAckBytes = kHeaderBytes;

}  // namespace burst
