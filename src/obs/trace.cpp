#include "src/obs/trace.hpp"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <utility>

#include "src/obs/format.hpp"

namespace burst {

namespace {

using obs_format::append_double;
using obs_format::append_escaped;
using obs_format::append_i64;

constexpr double kMicrosPerSec = 1e6;

// Exports hand the stream one buffer per this many bytes.
constexpr std::size_t kFlushBytes = std::size_t{1} << 20;

// Growth starts here, then doubles up to the ring's bound. 64Ki records
// is 3.5 MiB of address space, paged in only as records land; starting
// this large keeps a paper-scale run to a few reallocations, each of
// which copies the ring and faults in fresh pages inside the run.
constexpr std::size_t kMinGrowRecords = std::size_t{1} << 16;

// Export order: time alone, emission order breaking ties.
struct TimeBefore {
  bool operator()(const TraceRecord& a, const TraceRecord& b) const {
    return a.time < b.time;
  }
};

// Merge order, the scheduler key: execution time, then the executing
// event's tie-break instant (replayed across LPs by schedule_at_as_of).
struct KeyBefore {
  bool operator()(const TraceRecord& a, const TraceRecord& b) const {
    if (a.time != b.time) return a.time < b.time;
    return a.tie < b.tie;
  }
};

/// @p recs in std::stable_sort order under @p Less, produced lazily.
/// Trace records arrive sorted except for a few late ones keyed below an
/// earlier record (aggregates written after later records, such as the
/// congestion events TopoNet::finalize_trace appends). Those are stably
/// sorted on the side and merged back in (key, position) order, which is
/// exactly the stable sort's order, without moving the in-order bulk.
template <class Less>
class StableRun {
 public:
  explicit StableRun(std::span<const TraceRecord> recs) : recs_(recs) {
    const TraceRecord* last_kept = nullptr;
    for (std::size_t i = 0; i < recs_.size(); ++i) {
      if (last_kept != nullptr && Less{}(recs_[i], *last_kept)) {
        late_.push_back(i);
      } else {
        last_kept = &recs_[i];
      }
    }
    late_sorted_ = late_;
    std::stable_sort(late_sorted_.begin(), late_sorted_.end(),
                     [this](std::size_t a, std::size_t b) {
                       return Less{}(recs_[a], recs_[b]);
                     });
    skip_late();
    settle();
  }

  /// The next record in order; null once drained.
  const TraceRecord* head() const { return head_; }

  void pop() {
    if (head_is_late_) {
      ++late_next_;
    } else {
      ++next_;
      skip_late();
    }
    settle();
  }

 private:
  // The in-order cursor steps over the late records' positions.
  void skip_late() {
    while (skip_ < late_.size() && late_[skip_] == next_) {
      ++next_;
      ++skip_;
    }
  }

  // In (key, position) order a late record goes first only on a strictly
  // smaller key: every in-order record after it is keyed above it, and
  // an in-order record before it wins an equal key.
  void settle() {
    const bool have_in = next_ < recs_.size();
    head_ = have_in ? &recs_[next_] : nullptr;
    head_is_late_ = false;
    if (late_next_ == late_sorted_.size()) return;
    const TraceRecord& late = recs_[late_sorted_[late_next_]];
    if (!have_in || Less{}(late, recs_[next_])) {
      head_ = &late;
      head_is_late_ = true;
    }
  }

  std::span<const TraceRecord> recs_;
  std::vector<std::size_t> late_;         // late positions, ascending
  std::vector<std::size_t> late_sorted_;  // the same, stably by key
  std::size_t next_ = 0;                  // next in-order position
  std::size_t skip_ = 0;                  // next entry of late_ to skip
  std::size_t late_next_ = 0;             // next entry of late_sorted_
  const TraceRecord* head_ = nullptr;
  bool head_is_late_ = false;
};

}  // namespace

std::string_view to_string(TraceEventType t) {
  switch (t) {
    case TraceEventType::kSourceEmit: return "source_emit";
    case TraceEventType::kQueueEnqueue: return "queue_enqueue";
    case TraceEventType::kQueueDequeue: return "queue_dequeue";
    case TraceEventType::kQueueDrop: return "queue_drop";
    case TraceEventType::kLinkDeliver: return "link_deliver";
    case TraceEventType::kSinkAck: return "sink_ack";
    case TraceEventType::kCwndChange: return "cwnd_change";
    case TraceEventType::kSsthreshChange: return "ssthresh_change";
    case TraceEventType::kCcStateChange: return "cc_state_change";
    case TraceEventType::kFastRetransmit: return "fast_retransmit";
    case TraceEventType::kRto: return "rto";
    case TraceEventType::kVegasDiff: return "vegas_diff";
    case TraceEventType::kCongestionEvent: return "congestion_event";
  }
  return "unknown";
}

TraceSink::TraceSink(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  // Site 0 is the catch-all for records emitted before any registration.
  sites_.emplace_back("unknown");
}

std::uint8_t TraceSink::register_site(std::string_view name) {
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    if (sites_[i] == name) return static_cast<std::uint8_t>(i);
  }
  assert(sites_.size() < 256 && "TraceRecord::site is a uint8 index");
  sites_.emplace_back(name);
  return static_cast<std::uint8_t>(sites_.size() - 1);
}

std::uint16_t TraceSink::intern_state(std::string_view name) {
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (states_[i] == name) return static_cast<std::uint16_t>(i);
  }
  states_.emplace_back(name);
  return static_cast<std::uint16_t>(states_.size() - 1);
}

void TraceSink::grow() {
  ring_.reserve(std::min(capacity_,
                         std::max(kMinGrowRecords, 2 * ring_.capacity())));
}

std::span<const TraceRecord> TraceSink::emission_order(
    std::vector<TraceRecord>& scratch) const {
  if (head_ == 0) return ring_;
  // Wrapped: the oldest record sits at head_.
  const auto oldest = ring_.begin() + static_cast<std::ptrdiff_t>(head_);
  scratch.assign(oldest, ring_.end());
  scratch.insert(scratch.end(), ring_.begin(), oldest);
  return scratch;
}

template <class Fn>
void TraceSink::for_each_ordered(Fn&& fn) const {
  // Emission order is execution order, which is time order except for
  // aggregate records; the stable order keeps same-instant emission
  // order (the scheduler's deterministic tie-break).
  std::vector<TraceRecord> scratch;
  for (StableRun<TimeBefore> run(emission_order(scratch));
       run.head() != nullptr; run.pop()) {
    fn(*run.head());
  }
}

std::vector<TraceRecord> TraceSink::ordered() const {
  std::vector<TraceRecord> out;
  out.reserve(ring_.size());
  for_each_ordered([&out](const TraceRecord& r) { out.push_back(r); });
  return out;
}

void TraceSink::merge_from(const std::vector<const TraceSink*>& parts) {
  std::vector<std::vector<TraceRecord>> scratch(parts.size());
  std::vector<StableRun<KeyBefore>> runs;
  runs.reserve(parts.size());
  std::vector<std::vector<std::uint8_t>> site_maps(parts.size());
  std::vector<std::vector<std::uint16_t>> state_maps(parts.size());
  std::size_t total = 0;
  for (std::size_t k = 0; k < parts.size(); ++k) {
    const TraceSink& p = *parts[k];
    // Remap every part's site/state ids by name. Processing parts in LP
    // order keeps this sink's registries equal to the sequential run's
    // when LP 0 interns everything (the dumbbell split), and
    // deterministic regardless.
    for (const std::string& name : p.sites_) {
      site_maps[k].push_back(register_site(name));
    }
    for (const std::string& name : p.states_) {
      state_maps[k].push_back(intern_state(name));
    }
    runs.emplace_back(p.emission_order(scratch[k]));
    total += p.size();
  }
  ring_.reserve(std::min(capacity_, ring_.size() + total));
  // Each run is its part stably sorted by the scheduler key; merging the
  // runs with the lowest part winning an equal key gives the stable sort
  // of the parts' concatenation in LP order. Within an LP, emission order
  // breaks any residual tie exactly as the per-LP scheduler did.
  for (;;) {
    std::size_t best = runs.size();
    for (std::size_t k = 0; k < runs.size(); ++k) {
      const TraceRecord* h = runs[k].head();
      if (h != nullptr &&
          (best == runs.size() || KeyBefore{}(*h, *runs[best].head()))) {
        best = k;
      }
    }
    if (best == runs.size()) break;
    TraceRecord m = *runs[best].head();
    runs[best].pop();
    const std::vector<std::uint8_t>& site_map = site_maps[best];
    const std::vector<std::uint16_t>& state_map = state_maps[best];
    m.site = m.site < site_map.size() ? site_map[m.site] : 0;
    if (m.type == TraceEventType::kCcStateChange &&
        m.detail < state_map.size()) {
      m.detail = state_map[m.detail];
    }
    // Already stamped by the originating sink: keep its (tie, lp).
    put(m, m.tie, m.lp);
  }
}

TraceSeries TraceSink::cwnd_series(std::int32_t flow,
                                   std::string name) const {
  return std::move(
      cwnd_series(std::vector<std::int32_t>{flow}, {std::move(name)})
          .front());
}

std::vector<TraceSeries> TraceSink::cwnd_series(
    const std::vector<std::int32_t>& flows,
    std::vector<std::string> names) const {
  assert(flows.size() == names.size());
  std::vector<TraceSeries> out;
  out.reserve(flows.size());
  // slot[f]: the first series asked for flow f (-1: none). Records carry
  // flow -1 only off the flow tracks, so a negative flow stays empty.
  std::vector<int> slot;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    out.emplace_back(std::move(names[i]));
    if (flows[i] < 0) continue;
    const auto f = static_cast<std::size_t>(flows[i]);
    if (f >= slot.size()) slot.resize(f + 1, -1);
    if (slot[f] < 0) slot[f] = static_cast<int>(i);
  }
  for_each_ordered([&](const TraceRecord& r) {
    if (r.type != TraceEventType::kCwndChange || r.flow < 0 ||
        static_cast<std::size_t>(r.flow) >= slot.size()) {
      return;
    }
    const int s = slot[static_cast<std::size_t>(r.flow)];
    if (s >= 0) out[static_cast<std::size_t>(s)].record(r.time, r.value);
  });
  // A flow asked for twice gets its first series' points again.
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (flows[i] < 0) continue;
    const auto s = static_cast<std::size_t>(
        slot[static_cast<std::size_t>(flows[i])]);
    if (s == i) continue;
    for (const auto& [t, v] : out[s].points()) out[i].record(t, v);
  }
  return out;
}

std::vector<DropCluster> TraceSink::drop_clusters(std::uint8_t site,
                                                  Time gap) const {
  std::vector<DropCluster> out;
  std::vector<std::int32_t> hit;  // the open cluster's flows, repeats kept
  const auto close = [&] {
    std::sort(hit.begin(), hit.end());
    out.back().flows = static_cast<int>(
        std::unique(hit.begin(), hit.end()) - hit.begin());
    hit.clear();
  };
  for_each_ordered([&](const TraceRecord& r) {
    if (r.type != TraceEventType::kQueueDrop || r.site != site ||
        (r.detail & kTraceDetailAck) != 0) {
      return;
    }
    if (out.empty() || r.time - out.back().last > gap) {
      if (!out.empty()) close();
      out.push_back({r.time, r.time, 0, 0});
    }
    out.back().last = r.time;
    ++out.back().drops;
    hit.push_back(r.flow);
  });
  if (!out.empty()) close();
  return out;
}

bool TraceSink::write_jsonl(std::ostream& os) const {
  std::string out;
  for_each_ordered([&](const TraceRecord& r) {
    out += "{\"t\":";
    append_double(out, r.time);
    out += ",\"type\":\"";
    out += to_string(r.type);
    out += "\",\"site\":\"";
    append_escaped(out, sites_[r.site < sites_.size() ? r.site : 0]);
    out += "\",\"flow\":";
    append_i64(out, r.flow);
    out += ",\"seq\":";
    append_i64(out, r.seq);
    out += ",\"value\":";
    append_double(out, r.value);
    out += ",\"aux\":";
    append_double(out, r.aux);
    out += ",\"detail\":";
    append_i64(out, r.detail);
    if (r.type == TraceEventType::kCcStateChange &&
        r.detail < states_.size()) {
      out += ",\"state\":\"";
      append_escaped(out, states_[r.detail]);
      out += '"';
    }
    out += "}\n";
    if (out.size() >= kFlushBytes) {
      os << out;
      out.clear();
    }
  });
  os << out;
  return static_cast<bool>(os);
}

bool TraceSink::write_chrome_trace(std::ostream& os) const {

  // Flow tracks get their own pid so Perfetto groups each flow's counter
  // and instant tracks together; network sites share pid 1.
  constexpr int kNetPid = 1;
  constexpr int kFlowPidBase = 1000;
  std::vector<bool> flow_seen;
  for (const TraceRecord& r : ring_) {
    if (r.flow >= 0) {
      if (static_cast<std::size_t>(r.flow) >= flow_seen.size()) {
        flow_seen.resize(static_cast<std::size_t>(r.flow) + 1, false);
      }
      flow_seen[static_cast<std::size_t>(r.flow)] = true;
    }
  }

  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto meta = [&](const char* kind, int pid, int tid, std::string_view name) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    out += kind;
    out += "\",\"ph\":\"M\",\"pid\":";
    append_i64(out, pid);
    out += ",\"tid\":";
    append_i64(out, tid);
    out += ",\"args\":{\"name\":\"";
    append_escaped(out, name);
    out += "\"}}";
  };
  meta("process_name", kNetPid, 0, "network");
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    meta("thread_name", kNetPid, static_cast<int>(i), sites_[i]);
  }
  for (std::size_t f = 0; f < flow_seen.size(); ++f) {
    if (!flow_seen[f]) continue;
    meta("process_name", kFlowPidBase + static_cast<int>(f), 0,
         "flow " + std::to_string(f));
    meta("thread_name", kFlowPidBase + static_cast<int>(f), 0, "events");
  }

  auto header = [&](std::string_view name, char ph, int pid, int tid,
                    Time t) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    append_escaped(out, name);
    out += "\",\"ph\":\"";
    out.push_back(ph);
    out += "\",\"ts\":";
    append_double(out, t * kMicrosPerSec);
    out += ",\"pid\":";
    append_i64(out, pid);
    out += ",\"tid\":";
    append_i64(out, tid);
  };
  auto counter1 = [&](std::string_view name, int pid, Time t,
                      std::string_view series, double v) {
    header(name, 'C', pid, 0, t);
    out += ",\"args\":{\"";
    append_escaped(out, series);
    out += "\":";
    append_double(out, v);
    out += "}}";
  };
  auto instant_begin = [&](std::string_view name, int pid, int tid, Time t) {
    header(name, 'i', pid, tid, t);
    out += ",\"s\":\"t\",\"args\":{";
  };
  std::vector<std::string> qlen_names;
  qlen_names.reserve(sites_.size());
  for (const std::string& site : sites_) qlen_names.push_back("qlen " + site);

  for_each_ordered([&](const TraceRecord& r) {
    const int site_tid = r.site < sites_.size() ? r.site : 0;
    const int flow_pid = kFlowPidBase + (r.flow >= 0 ? r.flow : 0);
    switch (r.type) {
      case TraceEventType::kQueueEnqueue:
      case TraceEventType::kQueueDequeue:
        counter1(qlen_names[static_cast<std::size_t>(site_tid)], kNetPid,
                 r.time, "packets", r.value);
        break;
      case TraceEventType::kQueueDrop:
        instant_begin("drop", kNetPid, site_tid, r.time);
        out += "\"flow\":";
        append_i64(out, r.flow);
        out += ",\"seq\":";
        append_i64(out, r.seq);
        out += ",\"qlen\":";
        append_double(out, r.value);
        out += ",\"reason\":\"";
        out += (r.detail >> 1) == 1   ? "early"
               : (r.detail >> 1) == 2 ? "displaced"
                                      : "forced";
        out += "\"}}";
        break;
      case TraceEventType::kLinkDeliver:
        instant_begin("deliver", kNetPid, site_tid, r.time);
        out += "\"flow\":";
        append_i64(out, r.flow);
        out += ",\"seq\":";
        append_i64(out, r.seq);
        out += "}}";
        break;
      case TraceEventType::kSourceEmit:
        instant_begin("app_emit", flow_pid, 0, r.time);
        out += "\"n\":";
        append_i64(out, r.seq);
        out += "}}";
        break;
      case TraceEventType::kSinkAck:
        instant_begin("ack", flow_pid, 0, r.time);
        out += "\"ack\":";
        append_i64(out, r.seq);
        out += ",\"ooo\":";
        append_double(out, r.value);
        out += "}}";
        break;
      case TraceEventType::kCwndChange:
        counter1("cwnd", flow_pid, r.time, "cwnd", r.value);
        break;
      case TraceEventType::kSsthreshChange:
        counter1("ssthresh", flow_pid, r.time, "ssthresh", r.value);
        break;
      case TraceEventType::kVegasDiff:
        counter1("vegas_diff", flow_pid, r.time, "diff", r.value);
        break;
      case TraceEventType::kCcStateChange: {
        std::string name = "state: ";
        name += r.detail < states_.size() ? states_[r.detail] : "?";
        instant_begin(name, flow_pid, 0, r.time);
        out += "\"cwnd\":";
        append_double(out, r.value);
        out += "}}";
        break;
      }
      case TraceEventType::kFastRetransmit:
      case TraceEventType::kRto:
        instant_begin(r.type == TraceEventType::kRto ? "rto"
                                                     : "fast_retransmit",
                      flow_pid, 0, r.time);
        out += "\"seq\":";
        append_i64(out, r.seq);
        out += ",\"cwnd\":";
        append_double(out, r.value);
        out += "}}";
        break;
      case TraceEventType::kCongestionEvent:
        instant_begin("congestion_event", kNetPid, site_tid, r.time);
        out += "\"flows_hit\":";
        append_double(out, r.value);
        out += ",\"duration\":";
        append_double(out, r.aux);
        out += ",\"drops\":";
        append_i64(out, r.seq);
        out += "}}";
        break;
    }
    if (out.size() >= kFlushBytes) {
      os << out;
      out.clear();
    }
  });
  out += "\n]}\n";
  os << out;
  return static_cast<bool>(os);
}

}  // namespace burst
