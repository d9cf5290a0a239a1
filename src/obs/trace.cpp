#include "src/obs/trace.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstring>
#include <ostream>
#include <utility>

#include "src/obs/format.hpp"

namespace burst {

namespace {

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

namespace {

using obs_format::write_double;

constexpr double kMicrosPerSec = 1e6;

// Exports hand the stream one block of this many bytes at a time.
constexpr std::size_t kBlockBytes = std::size_t{1} << 20;

// Room for any one export record but its names: its literal text, three
// doubles, its integers and a fixed event name take at most 223 bytes
// (a Perfetto congestion_event). Each export adds its longest escaped
// site or state name.
constexpr std::size_t kRecordRoom = 256;

// Export text goes through a cursor into one block, which the stream
// receives whenever the next record might not fit in what is left of it.
class BlockWriter {
 public:
  explicit BlockWriter(std::ostream& os)
      : os_(os), block_(kBlockBytes), cur_(block_.data()) {}

  /// The cursor, with at least @p n bytes of room behind it.
  char* room(std::size_t n) {
    if (static_cast<std::size_t>(block_.data() + block_.size() - cur_) < n) {
      flush();
      if (block_.size() < n) {
        block_.resize(n);
        cur_ = block_.data();
      }
    }
    return cur_;
  }

  /// Ends the text written so far at @p end.
  void advance(char* end) { cur_ = end; }

  /// Hands the rest of the block to the stream; true while it is good.
  bool finish() {
    flush();
    return static_cast<bool>(os_);
  }

 private:
  void flush() {
    os_.write(block_.data(), cur_ - block_.data());
    cur_ = block_.data();
  }

  std::ostream& os_;
  std::vector<char> block_;
  char* cur_;
};

template <std::size_t N>
char* put_text(char* p, const char (&text)[N]) {
  std::memcpy(p, text, N - 1);
  return p + (N - 1);
}

char* put_text(char* p, std::string_view text) {
  std::memcpy(p, text.data(), text.size());
  return p + text.size();
}

char* put_int(char* p, std::int64_t v) {
  return std::to_chars(p, p + 20, v).ptr;
}

/// @p prefix + each of @p names, escaped for a JSON string once per
/// export instead of once per record.
std::vector<std::string> escaped(std::string_view prefix,
                                 const std::vector<std::string>& names) {
  std::vector<std::string> out;
  out.reserve(names.size());
  for (const std::string& name : names) {
    out.emplace_back(prefix);
    obs_format::append_escaped(out.back(), name);
  }
  return out;
}

std::size_t longest(const std::vector<std::string>& names) {
  std::size_t n = 0;
  for (const std::string& name : names) n = std::max(n, name.size());
  return n;
}

}  // namespace

bool TraceSink::write_jsonl(std::ostream& os) const {
  const std::vector<std::string> sites = escaped("", sites_);
  const std::vector<std::string> states = escaped("", states_);
  const std::size_t room = kRecordRoom + longest(sites) + longest(states);
  BlockWriter w(os);
  for_each_ordered([&](const TraceRecord& r) {
    char* p = w.room(room);
    p = put_text(p, "{\"t\":");
    p = write_double(p, r.time);
    p = put_text(p, ",\"type\":\"");
    p = put_text(p, to_string(r.type));
    p = put_text(p, "\",\"site\":\"");
    p = put_text(p, sites[r.site < sites.size() ? r.site : 0]);
    p = put_text(p, "\",\"flow\":");
    p = put_int(p, r.flow);
    p = put_text(p, ",\"seq\":");
    p = put_int(p, r.seq);
    p = put_text(p, ",\"value\":");
    p = write_double(p, r.value);
    p = put_text(p, ",\"aux\":");
    p = write_double(p, r.aux);
    p = put_text(p, ",\"detail\":");
    p = put_int(p, r.detail);
    if (r.type == TraceEventType::kCcStateChange &&
        r.detail < states.size()) {
      p = put_text(p, ",\"state\":\"");
      p = put_text(p, states[r.detail]);
      p = put_text(p, "\"");
    }
    w.advance(put_text(p, "}\n"));
  });
  return w.finish();
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
  const std::vector<std::string> sites = escaped("", sites_);
  const std::vector<std::string> qlen_names = escaped("qlen ", sites_);
  const std::vector<std::string> state_names = escaped("state: ", states_);
  const std::size_t room =
      kRecordRoom + std::max(longest(qlen_names), longest(state_names));

  BlockWriter w(os);
  w.advance(put_text(w.room(kRecordRoom),
                     "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
  bool first = true;
  auto meta = [&](std::string_view kind, int pid, int tid,
                  std::string_view name) {
    char* p = w.room(kRecordRoom + name.size());
    if (!first) p = put_text(p, ",\n");
    first = false;
    p = put_text(p, "{\"name\":\"");
    p = put_text(p, kind);
    p = put_text(p, "\",\"ph\":\"M\",\"pid\":");
    p = put_int(p, pid);
    p = put_text(p, ",\"tid\":");
    p = put_int(p, tid);
    p = put_text(p, ",\"args\":{\"name\":\"");
    p = put_text(p, name);
    w.advance(put_text(p, "\"}}"));
  };
  meta("process_name", kNetPid, 0, "network");
  for (std::size_t i = 0; i < sites.size(); ++i) {
    meta("thread_name", kNetPid, static_cast<int>(i), sites[i]);
  }
  for (std::size_t f = 0; f < flow_seen.size(); ++f) {
    if (!flow_seen[f]) continue;
    meta("process_name", kFlowPidBase + static_cast<int>(f), 0,
         "flow " + std::to_string(f));
    meta("thread_name", kFlowPidBase + static_cast<int>(f), 0, "events");
  }

  // Every record's event follows the metadata above, so it opens with a
  // comma. @p name is escaped already, or a fixed name.
  const auto header = [](char* p, std::string_view name, char ph, int pid,
                         int tid, Time t) {
    p = put_text(p, ",\n{\"name\":\"");
    p = put_text(p, name);
    p = put_text(p, "\",\"ph\":\"");
    *p++ = ph;
    p = put_text(p, "\",\"ts\":");
    p = write_double(p, t * kMicrosPerSec);
    p = put_text(p, ",\"pid\":");
    p = put_int(p, pid);
    p = put_text(p, ",\"tid\":");
    return put_int(p, tid);
  };
  const auto counter = [&header](char* p, std::string_view name, int pid,
                                 Time t, std::string_view series, double v) {
    p = header(p, name, 'C', pid, 0, t);
    p = put_text(p, ",\"args\":{\"");
    p = put_text(p, series);
    p = put_text(p, "\":");
    p = write_double(p, v);
    return put_text(p, "}}");
  };
  const auto instant = [&header](char* p, std::string_view name, int pid,
                                 int tid, Time t) {
    p = header(p, name, 'i', pid, tid, t);
    return put_text(p, ",\"s\":\"t\",\"args\":{");
  };

  for_each_ordered([&](const TraceRecord& r) {
    const int site_tid = r.site < sites_.size() ? r.site : 0;
    const int flow_pid = kFlowPidBase + (r.flow >= 0 ? r.flow : 0);
    char* p = w.room(room);
    switch (r.type) {
      case TraceEventType::kQueueEnqueue:
      case TraceEventType::kQueueDequeue:
        p = counter(p, qlen_names[static_cast<std::size_t>(site_tid)],
                    kNetPid, r.time, "packets", r.value);
        break;
      case TraceEventType::kQueueDrop:
        p = instant(p, "drop", kNetPid, site_tid, r.time);
        p = put_text(p, "\"flow\":");
        p = put_int(p, r.flow);
        p = put_text(p, ",\"seq\":");
        p = put_int(p, r.seq);
        p = put_text(p, ",\"qlen\":");
        p = write_double(p, r.value);
        p = put_text(p, ",\"reason\":\"");
        p = put_text(p, (r.detail >> 1) == 1   ? "early"
                   : (r.detail >> 1) == 2 ? "displaced"
                                          : "forced");
        p = put_text(p, "\"}}");
        break;
      case TraceEventType::kLinkDeliver:
        p = instant(p, "deliver", kNetPid, site_tid, r.time);
        p = put_text(p, "\"flow\":");
        p = put_int(p, r.flow);
        p = put_text(p, ",\"seq\":");
        p = put_int(p, r.seq);
        p = put_text(p, "}}");
        break;
      case TraceEventType::kSourceEmit:
        p = instant(p, "app_emit", flow_pid, 0, r.time);
        p = put_text(p, "\"n\":");
        p = put_int(p, r.seq);
        p = put_text(p, "}}");
        break;
      case TraceEventType::kSinkAck:
        p = instant(p, "ack", flow_pid, 0, r.time);
        p = put_text(p, "\"ack\":");
        p = put_int(p, r.seq);
        p = put_text(p, ",\"ooo\":");
        p = write_double(p, r.value);
        p = put_text(p, "}}");
        break;
      case TraceEventType::kCwndChange:
        p = counter(p, "cwnd", flow_pid, r.time, "cwnd", r.value);
        break;
      case TraceEventType::kSsthreshChange:
        p = counter(p, "ssthresh", flow_pid, r.time, "ssthresh", r.value);
        break;
      case TraceEventType::kVegasDiff:
        p = counter(p, "vegas_diff", flow_pid, r.time, "diff", r.value);
        break;
      case TraceEventType::kCcStateChange:
        p = instant(p,
                    r.detail < state_names.size()
                        ? std::string_view(state_names[r.detail])
                        : "state: ?",
                    flow_pid, 0, r.time);
        p = put_text(p, "\"cwnd\":");
        p = write_double(p, r.value);
        p = put_text(p, "}}");
        break;
      case TraceEventType::kFastRetransmit:
      case TraceEventType::kRto:
        p = instant(p,
                    r.type == TraceEventType::kRto ? "rto" : "fast_retransmit",
                    flow_pid, 0, r.time);
        p = put_text(p, "\"seq\":");
        p = put_int(p, r.seq);
        p = put_text(p, ",\"cwnd\":");
        p = write_double(p, r.value);
        p = put_text(p, "}}");
        break;
      case TraceEventType::kCongestionEvent:
        p = instant(p, "congestion_event", kNetPid, site_tid, r.time);
        p = put_text(p, "\"flows_hit\":");
        p = write_double(p, r.value);
        p = put_text(p, ",\"duration\":");
        p = write_double(p, r.aux);
        p = put_text(p, ",\"drops\":");
        p = put_int(p, r.seq);
        p = put_text(p, "}}");
        break;
    }
    w.advance(p);
  });
  w.advance(put_text(w.room(kRecordRoom), "\n]}\n"));
  return w.finish();
}

}  // namespace burst
