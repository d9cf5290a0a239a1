#include "src/transport/tcp_sink.hpp"

namespace burst {

TcpSink::TcpSink(Simulator& sim, Node& node, FlowId flow, NodeId peer,
                 TcpSinkConfig cfg)
    : Agent(sim, node, flow, peer),
      cfg_(cfg),
      // Armed and cancelled once per held segment; the cancel (the
      // common case: the second segment flushes the ACK) is a field
      // write, not a scheduler cancel.
      delack_timer_(sim, [this] {
        delack_pending_ = false;
        send_ack();
      }) {}

void TcpSink::send_ack() {
  Packet a;
  a.uid = next_uid();
  a.type = PacketType::kAck;
  a.size_bytes = kAckBytes;
  a.ack = rcv_nxt();
  a.ts_echo = echo_ts_;
  a.retransmit = echo_rexmit_;
  a.ece = echo_ece_;
  // One echo per mark; the sender rate-limits cuts.
  echo_ece_ = false;
  if (cfg_.sack && !ooo_.empty()) {
    // Report up to kMaxSackBlocks contiguous runs of buffered data.
    std::int64_t run_lo = -1, prev = -2;
    auto flush = [&a](std::int64_t lo, std::int64_t hi) {
      if (a.sack_count < Packet::kMaxSackBlocks) {
        a.sack[a.sack_count++] = {lo, hi};
      }
    };
    for (std::int64_t s : ooo_) {
      if (s != prev + 1) {
        if (run_lo >= 0) flush(run_lo, prev + 1);
        run_lo = s;
      }
      prev = s;
    }
    if (run_lo >= 0) flush(run_lo, prev + 1);
  }
  ++stats_.acks_sent;
  if (trace_) {
    TraceRecord r;
    r.time = sim_.now();
    r.type = TraceEventType::kSinkAck;
    r.site = trace_site_;
    r.flow = flow();
    r.seq = a.ack;
    r.value = static_cast<double>(ooo_.size());  // holes above the ack
    r.detail = kTraceDetailAck;
    trace_->emit(r);
  }
  transmit(a);
}

void TcpSink::arm_or_flush_delack(const Packet& p) {
  if (!cfg_.delayed_ack) {
    echo_ts_ = p.ts_echo;
    echo_rexmit_ = p.retransmit;
    send_ack();
    return;
  }
  if (delack_pending_) {
    // Second in-order segment: ACK now, covering both.
    delack_timer_.cancel();
    delack_pending_ = false;
    // Keep the *older* echo timestamp (RFC 7323 rule for delayed ACKs);
    // the retransmit flag must taint the sample if either segment was a
    // retransmission.
    echo_rexmit_ = echo_rexmit_ || p.retransmit;
    send_ack();
  } else {
    delack_pending_ = true;
    echo_ts_ = p.ts_echo;
    echo_rexmit_ = p.retransmit;
    delack_timer_.schedule(cfg_.delack_interval);
  }
}

void TcpSink::handle(const Packet& p) {
  if (p.type != PacketType::kData) return;
  ++stats_.data_arrivals;
  delay_.add(sim_.now() - p.ts_echo);
  if (p.ecn_marked) {
    echo_ece_ = true;  // latch until the next ACK goes out
  }

  if (p.seq == rcv_nxt()) {
    ++stats_.unique_packets;
    ++rcv_nxt_;
    // Drain any buffered segments this arrival made contiguous.
    auto it = ooo_.begin();
    while (it != ooo_.end() && *it == rcv_nxt()) {
      ++rcv_nxt_;
      it = ooo_.erase(it);
    }
    if (!ooo_.empty()) {
      // Still a hole above us: ACK immediately (fast-retransmit support).
      flush_immediate(p);
    } else {
      arm_or_flush_delack(p);
    }
    return;
  }

  if (p.seq > rcv_nxt()) {
    ++stats_.out_of_order;
    if (ooo_.insert(p.seq).second) ++stats_.unique_packets;
    else ++stats_.duplicate_packets;
  } else {
    ++stats_.duplicate_packets;
  }
  // Out-of-order or duplicate: immediate (duplicate) ACK.
  ++stats_.dup_acks_sent;
  flush_immediate(p);
}

void TcpSink::flush_immediate(const Packet& p) {
  if (delack_pending_) {
    // The ACK going out also covers the segment whose ACK was being
    // delayed, so the RFC 7323 delayed-ACK rule applies: echo the *older*
    // timestamp (the held one), not @p p's — overwriting it with the new
    // arrival's timestamp yields optimistically small RTT samples. Karn's
    // taint is the conservative OR of both segments' retransmit flags.
    delack_timer_.cancel();
    delack_pending_ = false;
    echo_rexmit_ = echo_rexmit_ || p.retransmit;
  } else {
    echo_ts_ = p.ts_echo;
    echo_rexmit_ = p.retransmit;
  }
  send_ack();
}

}  // namespace burst
