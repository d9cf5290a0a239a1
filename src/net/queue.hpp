// Queueing-discipline interface for gateway/link buffers, plus shared
// bookkeeping (arrival/drop counters and observer taps used by the
// burstiness experiments).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/net/packet.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/time.hpp"

namespace burst {

/// Counters every queue maintains; the loss-percentage figures read these.
struct QueueStats {
  std::uint64_t arrivals = 0;       // packets offered to the queue
  std::uint64_t drops = 0;          // packets rejected (any reason)
  std::uint64_t forced_drops = 0;   // rejected because the buffer was full
  std::uint64_t early_drops = 0;    // rejected probabilistically (RED)
  std::uint64_t departures = 0;     // packets handed to the transmitter

  double loss_fraction() const {
    return arrivals == 0 ? 0.0
                         : static_cast<double>(drops) / static_cast<double>(arrivals);
  }
};

/// Observers invoked on every arrival (before any drop decision) and every
/// drop, with the arrival timestamp. Multiple listeners may be attached;
/// run_experiment's c.o.v. bins and occupancy histogram share one on
/// the bottleneck.
class QueueTaps {
 public:
  using Listener = std::function<void(const Packet&, Time)>;

  void add_arrival_listener(Listener l) { arrival_.push_back(std::move(l)); }
  void add_drop_listener(Listener l) { drop_.push_back(std::move(l)); }

  void notify_arrival(const Packet& p, Time now) const {
    for (const auto& l : arrival_) l(p, now);
  }
  void notify_drop(const Packet& p, Time now) const {
    for (const auto& l : drop_) l(p, now);
  }

 private:
  std::vector<Listener> arrival_;
  std::vector<Listener> drop_;
};

class Queue {
 public:
  virtual ~Queue() = default;

  /// Offers a packet. Returns true if accepted, false if dropped.
  bool enqueue(const Packet& p, Time now);

  /// Moves the head-of-line packet into @p out and returns true, or
  /// returns false and leaves @p out alone if the queue is empty.
  virtual bool dequeue(Time now, Packet& out) = 0;

  /// Packets currently buffered.
  virtual std::size_t len() const = 0;
  bool queue_empty() const { return len() == 0; }

  const QueueStats& stats() const { return stats_; }
  QueueTaps& taps() { return taps_; }

  /// Attaches a structured-trace sink under the given site id (see
  /// TraceSink::register_site). Null detaches. The untraced hot path pays
  /// one null check per enqueue/dequeue.
  void set_trace(TraceSink* sink, std::uint8_t site = 0) {
    trace_ = sink;
    trace_site_ = site;
  }

  /// Called by the transmitter right after a successful dequeue (the
  /// queue itself cannot see dequeues of its subclasses' storage without
  /// a virtual hook, and the link already knows the instant).
  void trace_dequeue(const Packet& p, Time now) {
    if (trace_) emit_trace(TraceEventType::kQueueDequeue, p, now, 0);
  }

 protected:
  /// Discipline-specific accept/reject decision. Implementations must
  /// store the packet themselves when accepting. An ECN-capable gateway
  /// that marks instead of dropping sets the mark on its stored copy, so
  /// @p p — what the taps and the trace report — stays as offered.
  virtual bool do_enqueue(const Packet& p, Time now) = 0;

  void count_departure() { ++stats_.departures; }

  /// Counts and reports the drop of an *already-buffered* packet, for
  /// disciplines that displace stored packets (longest-queue drop).
  void count_displaced_drop(const Packet& p, Time now) {
    ++stats_.drops;
    ++stats_.forced_drops;
    taps_.notify_drop(p, now);
    if (trace_) {
      emit_trace(TraceEventType::kQueueDrop, p, now, kTraceDropDisplaced);
    }
  }

  QueueStats stats_;

 private:
  /// The trace-enabled tail of enqueue(): runs the discipline decision
  /// with the drop-reason snapshot and record emission that the untraced
  /// path must not pay for.
  bool enqueue_traced(const Packet& p, Time now);

  /// Shared slow-path emission (out of line; callers have already null-
  /// checked trace_).
  void emit_trace(TraceEventType type, const Packet& p, Time now,
                  std::uint16_t detail);

  QueueTaps taps_;
  TraceSink* trace_ = nullptr;
  std::uint8_t trace_site_ = 0;
};

}  // namespace burst
