#include "src/net/queue.hpp"

#include "src/obs/profile.hpp"

namespace burst {

bool Queue::enqueue(const Packet& p, Time now) {
  ProfileScope prof(ProfilePhase::kQueue);
  ++stats_.arrivals;
  taps_.notify_arrival(p, now);
  // One branch keeps every traced-only load (the early-drop snapshot,
  // the record build) off the untraced per-packet path.
  if (trace_ != nullptr) return enqueue_traced(p, now);
  const bool accepted = do_enqueue(p, now);
  if (!accepted) {
    ++stats_.drops;
    taps_.notify_drop(p, now);
  }
  return accepted;
}

bool Queue::enqueue_traced(const Packet& p, Time now) {
  const std::uint64_t early_before = stats_.early_drops;
  const bool accepted = do_enqueue(p, now);
  if (!accepted) {
    ++stats_.drops;
    taps_.notify_drop(p, now);
    emit_trace(TraceEventType::kQueueDrop, p, now,
               stats_.early_drops > early_before ? kTraceDropEarly
                                                 : kTraceDropForced);
  } else {
    emit_trace(TraceEventType::kQueueEnqueue, p, now, 0);
  }
  return accepted;
}

void Queue::emit_trace(TraceEventType type, const Packet& p, Time now,
                       std::uint16_t detail) {
  TraceRecord r;
  r.time = now;
  r.type = type;
  r.site = trace_site_;
  r.flow = p.flow;
  r.seq = p.type == PacketType::kAck ? p.ack : p.seq;
  r.value = static_cast<double>(len());
  r.detail = static_cast<std::uint16_t>(
      detail | (p.type == PacketType::kAck ? kTraceDetailAck : 0));
  trace_->emit(r);
}

}  // namespace burst
