#include "src/net/link.hpp"

#include <cassert>
#include <utility>

#include "src/sim/time.hpp"

namespace burst {

SimplexLink::SimplexLink(Simulator& sim, std::unique_ptr<Queue> queue,
                         double bandwidth_bps, Time prop_delay)
    : sim_(sim),
      queue_(std::move(queue)),
      bandwidth_bps_(bandwidth_bps),
      prop_delay_(prop_delay) {
  assert(queue_ && bandwidth_bps_ > 0.0 && prop_delay_ >= 0.0);
}

void SimplexLink::send(const Packet& p) {
  queue_->enqueue(p, sim_.now());
  try_transmit();
}

void SimplexLink::try_transmit(bool chained) {
  const Time now = sim_.now();
  if (now < free_at_ || (now == free_at_ && tx_open_)) {
    // Transmitter occupied — or we are AT the completion instant but the
    // transmission's place in the event order (the old tx-complete event,
    // now the drain) has not been reached yet. Deferring the dequeue to
    // the drain keeps it at exactly the old tx-complete's rank: an arrival
    // landing at precisely free_at_ must not jump ahead of other
    // same-instant arrivals whose events sort before that rank. Whatever
    // just arrived waits in the queue; a single drain at free_at_ picks
    // it up.
    if (!drain_pending_ && !queue_->queue_empty()) schedule_drain();
    return;
  }
  // No ProfileScope here: head-of-line pops are trivial and this is the
  // hottest per-hop site — dequeue time reads as dispatch, while the
  // kQueue phase captures the discipline's accept/drop decisions.
  //
  // The packet is dequeued straight into its next home: the outbox slot
  // a cut link hands to the consumer LP, or else the in-flight FIFO
  // whose front the delivery event pops.
  Packet& next = outbox_ != nullptr ? outbox_->emplace_back().pkt
                                    : in_flight_.emplace_back();
  if (!queue_->dequeue(now, next)) {
    if (outbox_ != nullptr) {
      outbox_->pop_back();
    } else {
      in_flight_.pop_back();
    }
    return;
  }
  queue_->trace_dequeue(next, now);
  if (!chained) {
    // A transmission not continued by the drain roots a new back-to-back
    // burst: remember where (and under which parent event) the chain
    // began — the genesis half of the cross-LP merge key (see RemoteKey).
    chain_start_ = now;
    chain_cause_ = sim_.current_tie();
  }
  const Time tx = transmission_time(next.size_bytes, bandwidth_bps_);
  // Last bit leaves at now+tx; it arrives prop_delay later. Evaluated as
  // (now + tx) + prop_delay — the same association as the old tx-complete
  // -> propagate event pair — so delivery timestamps are bit-identical.
  tx_start_ = now;
  free_at_ = now + tx;
  tx_open_ = true;
  // Reserve the drain's same-instant rank now: the unfused design's
  // tx-complete event was always inserted here, so a drain armed later
  // (by a mid-transmission arrival) must still sort as if inserted here
  // or same-instant drains on sibling links fire in a different order.
  drain_order_ = sim_.reserve_order();
  if (outbox_ != nullptr) {
    // Cut link: the receiver lives in another LP. Stamp the handoff with
    // the exact key the fused delivery event below would have carried; the
    // consumer LP inserts the equivalent event at its next window merge.
    // The drain machinery stays local — the transmitter and its queue
    // belong to this side of the cut.
    RemoteEvent& handoff = outbox_->back();
    handoff.key = RemoteKey{free_at_ + prop_delay_, free_at_, tx_start_,
                            sim_.current_tie(), chain_start_, chain_cause_};
    handoff.link = this;
    if (!queue_->queue_empty()) schedule_drain();
    return;
  }
  // The delivery pops the in-flight FIFO's front, which is this packet:
  // a link's deliveries fire in transmission order, because each one's
  // scheduler key (at, tie_time, FIFO rank) tops the one before — free_at_
  // never decreases, neither does free_at_ + prop_delay_ (IEEE addition
  // is monotone), and the rank is fresh.
  auto delivery = [this] { deliver_next(sim_.now()); };
  static_assert(SmallFn::stores_inline<decltype(delivery)>(),
                "the per-hop delivery closure must fit SmallFn's inline "
                "buffer (the packet waits in the in-flight FIFO)");
  // Tie-break as of free_at_: the unfused design inserted the delivery
  // from a tx-complete event at free_at_, so among same-instant arrivals
  // (ubiquitous with uniform packet sizes) the fused event must sort as
  // if inserted there, not at transmission start.
  sim_.schedule_at_as_of(free_at_ + prop_delay_, free_at_,
                         std::move(delivery));
  // A backlog at transmission start needs a drain event at tx end. (An
  // arrival during the transmission arms it from the busy branch above.)
  if (!queue_->queue_empty()) schedule_drain();
}

void SimplexLink::deliver_next(Time now) {
  // Copied out before the receiver runs: it may send on this link again,
  // and a push can regrow the FIFO under a reference to its front.
  const Packet p = in_flight_.front();
  in_flight_.pop_front();
  ++delivered_;
  bytes_delivered_ += static_cast<std::uint64_t>(p.size_bytes);
  if (trace_) {
    // The trace pointer is a link member, not a capture, so the traced
    // and untraced delivery closures are the same size (SmallFn-inline).
    TraceRecord r;
    r.time = now;
    r.type = TraceEventType::kLinkDeliver;
    r.site = trace_site_;
    r.flow = p.flow;
    r.seq = p.type == PacketType::kAck ? p.ack : p.seq;
    r.value = static_cast<double>(p.size_bytes);
    r.detail = p.type == PacketType::kAck ? kTraceDetailAck : 0;
    trace_->emit(r);
  }
  assert(receiver_ && "SimplexLink has no receiver attached");
  receiver_(p);
}

void SimplexLink::schedule_drain() {
  drain_pending_ = true;
  auto drain = [this] {
    // This event IS the transmission's tx-complete position: past it the
    // transmitter is genuinely free, so a later same-instant arrival may
    // dequeue inline (as it did in the unfused design once tx-complete
    // had run).
    drain_pending_ = false;
    tx_open_ = false;
    try_transmit(/*chained=*/true);
  };
  static_assert(SmallFn::stores_inline<decltype(drain)>(),
                "the drain closure must fit SmallFn's inline buffer");
  // Rank as of (tx_start_, drain_order_): the unfused tx-complete event
  // this drain replaces was always inserted at transmission start, even
  // when the drain is only armed by a mid-transmission arrival.
  sim_.schedule_at_reserved(free_at_, tx_start_, drain_order_,
                            std::move(drain));
}

}  // namespace burst
