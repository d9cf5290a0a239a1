// Structured event tracing: a per-simulation TraceSink that components
// feed typed records into through raw-pointer taps.
//
// Design constraints (DESIGN.md "Observability"):
//  * Zero cost when off. Every tap is a single null-pointer check on a
//    member the component already has in cache; no virtual dispatch, no
//    std::function, no allocation on the untraced path. The bit-identity
//    pins (tests/result_identity_test.cpp) and the packet-path CI gate
//    hold with tracing wired in because the disabled branch is one
//    predictable compare.
//  * No feedback into the simulation. Emitting a record never schedules
//    an event, never consumes RNG, never mutates component state — a
//    traced run's ExperimentResult is bit-identical to an untraced one
//    (tests/obs_trace_test.cpp proves it differentially).
//  * Bounded memory. Records land in a ring whose capacity is a bound,
//    not an up-front allocation: storage grows on demand (doubling,
//    capped at the bound), so a short run pays for the records it
//    emits. A run that outgrows the bound overwrites the oldest records
//    and counts them.
//
// Exports: JSONL (one record per line, greppable) and Chrome trace-event
// JSON (the `{"traceEvents": [...]}` dialect Perfetto and chrome://tracing
// load), with one track per network site and one per flow, counter tracks
// for cwnd/ssthresh and instants for drops/retransmits/state changes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/time.hpp"
#include "src/sim/trace.hpp"

namespace burst {

enum class TraceEventType : std::uint8_t {
  kSourceEmit = 0,   // application handed a packet to the transport
  kQueueEnqueue,     // queue accepted a packet (value = occupancy after)
  kQueueDequeue,     // transmitter pulled a packet (value = occupancy after)
  kQueueDrop,        // queue rejected/displaced a packet (value = occupancy)
  kLinkDeliver,      // packet reached the far end of a link (value = bytes)
  kSinkAck,          // receiver emitted an ACK (seq = cumulative ack)
  kCwndChange,       // value = new cwnd, aux = ssthresh
  kSsthreshChange,   // value = new ssthresh, aux = cwnd
  kCcStateChange,    // detail = state string id, value = cwnd
  kFastRetransmit,   // seq = hole retransmitted, value = cwnd after
  kRto,              // retransmission timeout fired, value = cwnd after
  kVegasDiff,        // per-RTT decision: value = diff, aux = cwnd after
  kCongestionEvent,  // a closed drop cluster of the site's data drops
                     // (TopoNet::finalize_trace): value = flows hit,
                     // aux = cluster duration, seq = drops in cluster
};

/// Stable lowercase token for exports ("queue_drop", "cwnd_change", ...).
std::string_view to_string(TraceEventType t);

/// One trace record: a compact POD (56 bytes) so a multi-million-event
/// run rings through cheaply. Field meaning depends on `type` (see the
/// enum); `site` indexes TraceSink's site registry, `detail` is a small
/// type-specific discriminant (packet kind, drop reason, state id).
/// `tie` and `lp` are stamped by the sink itself (see TraceSink::emit):
/// they never appear in exports, they exist so per-LP rings merge back
/// into the sequential emission order (DESIGN.md §14).
struct TraceRecord {
  Time time = 0.0;
  double value = 0.0;
  double aux = 0.0;
  Time tie = 0.0;  // executing event's scheduler tie-break instant
  std::int64_t seq = -1;
  std::int32_t flow = -1;
  TraceEventType type = TraceEventType::kSourceEmit;
  std::uint8_t site = 0;
  std::uint16_t detail = 0;
  std::uint8_t lp = 0;  // logical process that emitted the record
};

/// `detail` bit layout for packet-lifecycle records (queue/link/source):
/// bit 0 = packet kind (0 data, 1 ack); bits 1-2 = drop reason for
/// kQueueDrop (0 forced, 1 early/RED, 2 displaced).
inline constexpr std::uint16_t kTraceDetailAck = 1;
inline constexpr std::uint16_t kTraceDropForced = 0 << 1;
inline constexpr std::uint16_t kTraceDropEarly = 1 << 1;
inline constexpr std::uint16_t kTraceDropDisplaced = 2 << 1;

/// A drop cluster (TraceSink::drop_clusters): a run of one site's data
/// drops with no silence longer than a gap between two of them. Its
/// flows count is the loss synchronization the paper blames for Reno's
/// burstiness (Sec 3.2.1, Fig 9).
struct DropCluster {
  Time first = 0.0;         // first drop
  Time last = 0.0;          // last drop
  int flows = 0;            // distinct flows hit
  std::uint64_t drops = 0;  // drops in the cluster
};

class TraceSink {
 public:
  /// @p capacity bounds the ring (records, not bytes); nothing is
  /// allocated until the first record. The default holds a full
  /// paper-scale run with room to spare: N=60 for 20 s at seed 1 emits
  /// 489,252 records under Reno/DropTail and 429,178 under Reno/RED.
  explicit TraceSink(std::size_t capacity = std::size_t{1} << 22);

  /// Registers (or finds) a named emission site — "queue:gateway",
  /// "link:bottleneck" — and returns its id for TraceRecord::site.
  std::uint8_t register_site(std::string_view name);

  /// Interns a congestion-control state name ("slow-start", "vegas-ca")
  /// and returns its id for TraceRecord::detail on kCcStateChange.
  std::uint16_t intern_state(std::string_view name);

  /// Binds the stamp every emitted record carries: @p tie_clock is the
  /// owning Simulator's executing-event tie-break instant (stable address,
  /// see Simulator::tie_clock) and @p lp the logical process this sink
  /// records for. Unset, records are stamped tie = their own time and
  /// lp = 0, which is exact for a single-LP run.
  void set_stamp(const Time* tie_clock, std::uint8_t lp) {
    tie_clock_ = tie_clock;
    lp_ = lp;
  }

  std::uint8_t lp() const { return lp_; }

  /// Appends a record; overwrites the oldest when the ring is full.
  void emit(const TraceRecord& r) {
    put(r, tie_clock_ != nullptr ? *tie_clock_ : r.time, lp_);
  }

  /// Appends an aggregate: a record emitted AFTER its logical timestamp,
  /// like the congestion events TopoNet::finalize_trace writes once the
  /// run is over. Stamped with tie = kTimeNever so merge_from() sorts it
  /// after every same-instant live record, and the exports place it by
  /// time alone, after the live records of its instant, wherever it sits
  /// in the ring.
  void emit_aggregate(const TraceRecord& r) { put(r, kTimeNever, lp_); }

  /// Records ever emitted (including any overwritten ones).
  std::uint64_t emitted() const { return emitted_; }
  /// Records overwritten because the ring was full.
  std::uint64_t dropped() const { return emitted_ - ring_.size(); }
  /// Records currently held.
  std::size_t size() const { return ring_.size(); }
  /// The ring's bound in records (what the constructor was given).
  std::size_t capacity() const { return capacity_; }

  const std::vector<std::string>& sites() const { return sites_; }
  const std::vector<std::string>& states() const { return states_; }

  /// The held records in nondecreasing time order. Components emit in
  /// event-execution order, which is already time order except for
  /// aggregates (emit_aggregate: the congestion events), so this is a
  /// near-no-op stable sort.
  std::vector<TraceRecord> ordered() const;

  /// Deterministic multi-LP merge: appends every part's held records into
  /// this sink in (time, tie) order — the same scheduler-key discipline
  /// the parallel runtime's merge_inbound uses — remapping site and
  /// CC-state ids by NAME into this sink's registries (each part interns
  /// independently). Within an LP, same-instant emissions already pop in
  /// nondecreasing tie order, and cross-LP deliveries replay the
  /// producer's tie (Simulator::schedule_at_as_of), so the merged order
  /// reproduces the sequential engine's emission order and the exports
  /// are byte-identical to a 1-LP run (tests/trace_merge_test.cpp).
  /// Each part is read in place as one run in its stable (time, tie)
  /// order — only its few late aggregates are sorted, on the side — and
  /// the runs merge stably in part order: exactly the order a stable sort
  /// of the parts' concatenation gives, without the sort.
  /// Call once, on a sink that has not recorded; parts stay untouched.
  void merge_from(const std::vector<const TraceSink*>& parts);

  /// Flow @p flow's congestion window as a series named @p name: the
  /// time and value of its kCwndChange records, in export order. Before
  /// the first point the window holds its value at attach time,
  /// kInitialCwnd in a run traced from the start. A flow's records all
  /// come from the LP that runs its sender, so the series is the same at
  /// any shard count. If dropped() > 0 it may start late.
  TraceSeries cwnd_series(std::int32_t flow, std::string name) const;

  /// cwnd_series(flows[i], names[i]) for every i, filled in one walk of
  /// the held records.
  std::vector<TraceSeries> cwnd_series(
      const std::vector<std::int32_t>& flows,
      std::vector<std::string> names) const;

  /// Site @p site's kQueueDrop records of data packets (ACK drops are
  /// skipped) in export order, cut into clusters: a drop more than @p gap
  /// after the previous one opens the next cluster. A flow counts once
  /// per cluster. The last cluster is returned too, although no later
  /// drop closed it. If dropped() > 0 the clusters start at the oldest
  /// drop still held.
  std::vector<DropCluster> drop_clusters(std::uint8_t site, Time gap) const;

  /// One JSON object per line; schema in scripts/trace_event.schema.json.
  bool write_jsonl(std::ostream& os) const;

  /// Chrome trace-event JSON ("ph":"i" instants, "ph":"C" counters, ts in
  /// microseconds) loadable by Perfetto / chrome://tracing.
  bool write_chrome_trace(std::ostream& os) const;

 private:
  /// Stores @p r stamped (tie, lp): appended while the ring is below its
  /// bound, else over the oldest record.
  void put(const TraceRecord& r, Time tie, std::uint8_t lp) {
    ++emitted_;
    TraceRecord* slot;
    if (ring_.size() < capacity_) {
      if (ring_.size() == ring_.capacity()) grow();
      slot = &ring_.emplace_back(r);
    } else {
      slot = &ring_[head_];
      *slot = r;
      if (++head_ == capacity_) head_ = 0;
    }
    slot->tie = tie;
    slot->lp = lp;
  }

  /// Grows the ring's storage: 64Ki records first, then doubling,
  /// capped at the bound.
  void grow();

  /// The held records in emission order: the ring itself until it
  /// wraps, then its unrolled copy in @p scratch.
  std::span<const TraceRecord> emission_order(
      std::vector<TraceRecord>& scratch) const;

  /// Calls @p fn on every held record in ordered()'s order, reading them
  /// in place.
  template <class Fn>
  void for_each_ordered(Fn&& fn) const;

  std::vector<TraceRecord> ring_;  // size() == min(emitted_, capacity_)
  std::size_t capacity_;
  std::size_t head_ = 0;  // oldest record once the ring is full
  std::uint64_t emitted_ = 0;
  const Time* tie_clock_ = nullptr;
  std::uint8_t lp_ = 0;
  std::vector<std::string> sites_;
  std::vector<std::string> states_;
};

}  // namespace burst
