// A simplex point-to-point link: buffer queue + transmitter + propagation.
//
// Packets offered while the transmitter is busy wait in the queue (or are
// dropped by its discipline). A full-duplex link is simply two simplex
// links. Delivery order on a link is FIFO by construction.
//
// Hot-path design (DESIGN.md §6): each transmitted packet costs ONE fused
// scheduler event — delivery at (dequeue + tx) + prop — instead of the
// classic tx-complete + propagate pair. Transmitter occupancy is a lazy
// `free_at_` timestamp checked in try_transmit(); a separate drain event
// at tx end exists only while the queue is backlogged, so an idle-queue
// link (the whole ACK direction of the dumbbell) runs 1 event/packet and
// a saturated one 2. In-flight packets are parked in a PacketSlab so the
// delivery closure is 16 bytes and never heap-allocates.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/net/channel.hpp"
#include "src/net/packet_slab.hpp"
#include "src/net/queue.hpp"
#include "src/sim/simulator.hpp"

namespace burst {

class SimplexLink;

/// The deterministic-merge key for one cross-LP packet handoff. `at` and
/// `tie_time` are the exact scheduler key the fused delivery event would
/// have carried had the link's endpoints shared an LP; the remaining
/// fields reconstruct the sequential engine's FIFO order among handoffs
/// whose (at, tie_time) collide exactly (DESIGN.md §13.3):
///
///  * Sequentially, a colliding pair orders by the global rank reserved at
///    each transmission's start — so an earlier `tx_start` wins outright.
///  * Equal tx_start means both ranks were reserved at the same instant,
///    in the execution order of the two reserving parent events, which
///    order by their own tie-break instants: `cause` (the producer-side
///    parent's tie, Simulator::current_tie()).
///  * Equal cause is the phase-locked case — both parents are drain
///    events of back-to-back burst chains transmitting in lockstep. FIFO
///    rank then inherits, generation by generation, from the instant the
///    younger chain STARTED: its genesis parent (tie `chain_cause`, a
///    distinct instant such as an ACK arrival) raced the older chain's
///    drain (tie = chain_start − one transmission time). `chain_start` /
///    `chain_cause` let the consumer's merge replay that race.
struct RemoteKey {
  Time at;           // delivery instant: (dequeue + tx) + prop
  Time tie_time;     // same-instant rank: transmitter free_at
  Time tx_start;     // when the transmission began (rank reservation)
  Time cause;        // tie of the producer event that started the tx
  Time chain_start;  // first tx_start of this back-to-back burst chain
  Time chain_cause;  // `cause` as of the chain's first transmission
};

/// One cross-LP packet handoff: the key its delivery event would have
/// carried had the link's endpoints shared an LP, the cut link it left,
/// and the packet.
struct RemoteEvent {
  RemoteKey key;
  SimplexLink* link;
  Packet pkt;
};

class SimplexLink : public PacketChannel {
 public:
  /// @p queue buffers packets awaiting transmission; @p bandwidth_bps and
  /// @p prop_delay describe the wire.
  SimplexLink(Simulator& sim, std::unique_ptr<Queue> queue,
              double bandwidth_bps, Time prop_delay);

  SimplexLink(const SimplexLink&) = delete;
  SimplexLink& operator=(const SimplexLink&) = delete;

  /// Sets the far-end packet handler. Must be called before send().
  void set_receiver(std::function<void(const Packet&)> rx) {
    receiver_ = std::move(rx);
  }

  /// Offers a packet for transmission (may be dropped by the queue).
  void send(const Packet& p) override;

  Queue& queue() { return *queue_; }
  const Queue& queue() const { return *queue_; }
  double bandwidth_bps() const { return bandwidth_bps_; }
  Time prop_delay() const { return prop_delay_; }
  /// True while a transmission is in progress (the transmitter is
  /// occupied until free_at_; there is no unconditional tx-complete
  /// event). At exactly free_at_ the transmitter still counts as busy
  /// until the drain event holding the tx-complete's rank has run.
  bool busy() const {
    return sim_.now() < free_at_ || (sim_.now() == free_at_ && tx_open_);
  }

  /// Packets handed to the receiver so far.
  std::uint64_t delivered() const { return delivered_; }
  /// Payload-inclusive bytes delivered.
  std::uint64_t bytes_delivered() const { return bytes_delivered_; }

  /// Attaches a structured-trace sink: dequeues are reported against the
  /// queue's site (set there by the caller), deliveries against @p site.
  /// The trace pointer lives on the link, NOT in the delivery closure, so
  /// the closure stays within SmallFn's inline buffer (see static_assert
  /// in link.cpp).
  void set_trace(TraceSink* sink, std::uint8_t site = 0) {
    trace_ = sink;
    trace_site_ = site;
  }

  /// Marks this link as a cut edge whose receiver lives in another LP:
  /// each transmission is appended to @p outbox, stamped with its
  /// RemoteKey, instead of being scheduled on this link's (producer-side)
  /// simulator. The receiving LP takes the outbox at its next window
  /// merge (src/sim/parallel). Build-time only.
  void set_outbox(std::vector<RemoteEvent>* outbox) { outbox_ = outbox; }

  /// Hands @p p to the receiver at simulated instant @p now, counting and
  /// tracing the delivery. On a cut link this runs on the CONSUMER LP's
  /// thread with the consumer's clock (this link's own sim_.now() belongs
  /// to the producer and must not be read there), so the delivery
  /// counters are touched only by the consumer thread.
  void deliver(const Packet& p, Time now);

 private:
  /// Starts transmitting the head-of-line packet if the transmitter is
  /// free; otherwise makes sure a drain event is armed for tx end.
  /// @p chained is true only when called from the drain event continuing
  /// a back-to-back burst — it keeps the chain-genesis stamp (see
  /// RemoteKey) instead of re-rooting it at the current event.
  void try_transmit(bool chained = false);
  /// Schedules the (single) queue-drain event at free_at_.
  void schedule_drain();

  Simulator& sim_;
  std::unique_ptr<Queue> queue_;
  double bandwidth_bps_;
  Time prop_delay_;
  std::function<void(const Packet&)> receiver_;
  PacketSlab slab_;            // packets between dequeue and delivery
  Time tx_start_ = 0.0;        // when the current transmission began
  Time free_at_ = 0.0;         // transmitter is busy until this instant
  Time chain_start_ = 0.0;     // tx_start_ of the current burst's first tx
  Time chain_cause_ = 0.0;     // parent-event tie at the burst's start
  std::uint64_t drain_order_ = 0;  // FIFO rank reserved at tx start
  bool drain_pending_ = false; // a drain event is armed at free_at_
  bool tx_open_ = false;       // current tx's completion rank not yet run;
                               // only consulted when now == free_at_
  std::uint64_t delivered_ = 0;
  std::uint64_t bytes_delivered_ = 0;
  TraceSink* trace_ = nullptr;
  std::uint8_t trace_site_ = 0;
  std::vector<RemoteEvent>* outbox_ = nullptr;  // non-null iff cut link
};

}  // namespace burst
