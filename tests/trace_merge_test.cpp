// PR 10 observability: deterministic per-LP trace merge, parallel-runtime
// telemetry, the runtime-timeline export, and the flight recorder.
//
// The load-bearing claim is byte identity: a traced --lp=2 run's JSONL
// and Perfetto exports must equal the sequential run's exactly, because
// per-LP rings merge on the same (time, tie) scheduler-key discipline the
// parallel engine itself uses for cross-LP messages (DESIGN.md §14.1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/experiment.hpp"
#include "src/obs/flight_recorder.hpp"
#include "src/obs/runtime_trace.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/simulator.hpp"

namespace burst {
namespace {

Scenario small_scenario(Transport transport, GatewayQueue queue,
                        std::uint64_t seed = 1) {
  Scenario sc = Scenario::paper_default();
  sc.transport = transport;
  sc.gateway = queue;
  sc.num_clients = 10;
  sc.duration = 3.0;
  sc.seed = seed;
  return sc;
}

struct TracedRun {
  ExperimentResult result;
  std::string jsonl;
  std::string perfetto;
};

TracedRun traced_run(const Scenario& sc, int lp_shards) {
  TraceSink sink;
  ExperimentOptions opts;
  opts.trace = &sink;
  opts.lp_shards = lp_shards;
  TracedRun out;
  out.result = run_experiment(sc, opts);
  std::ostringstream j, p;
  EXPECT_TRUE(sink.write_jsonl(j));
  EXPECT_TRUE(sink.write_chrome_trace(p));
  out.jsonl = j.str();
  out.perfetto = p.str();
  return out;
}

// The tentpole acceptance: both exports byte-identical between the
// sequential engine and the 2-LP conservative engine, across the CC/AQM
// grid (Vegas adds vegas_diff records, RED adds early drops — the record
// mix differs per cell, the identity must not).
TEST(TraceMergeDifferential, Lp2ByteIdenticalAcrossProtocolGrid) {
  const struct {
    Transport t;
    GatewayQueue q;
    const char* label;
  } grid[] = {
      {Transport::kReno, GatewayQueue::kDropTail, "reno/fifo"},
      {Transport::kReno, GatewayQueue::kRed, "reno/red"},
      {Transport::kVegas, GatewayQueue::kDropTail, "vegas/fifo"},
      {Transport::kVegas, GatewayQueue::kRed, "vegas/red"},
  };
  for (const auto& cell : grid) {
    SCOPED_TRACE(cell.label);
    const TracedRun seq = traced_run(small_scenario(cell.t, cell.q), 1);
    const TracedRun par = traced_run(small_scenario(cell.t, cell.q), 2);
    ASSERT_EQ(par.result.lp_shards, 2) << "partitioner declined the split";
    EXPECT_GT(seq.jsonl.size(), 0u);
    EXPECT_EQ(seq.jsonl, par.jsonl);
    EXPECT_EQ(seq.perfetto, par.perfetto);
    // Tracing must not have perturbed the dynamics either.
    EXPECT_EQ(seq.result.sim_events, par.result.sim_events);
    EXPECT_EQ(seq.result.delivered, par.result.delivered);
  }
}

// Seed sweep on the heavy cell: byte identity has to survive different
// drop placements, retransmit patterns and congestion-event clusters.
TEST(TraceMergeDifferential, Lp2ByteIdenticalAcrossSeeds) {
  for (const std::uint64_t seed : {2u, 3u, 5u, 8u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Scenario sc = small_scenario(Transport::kReno, GatewayQueue::kRed, seed);
    sc.num_clients = 8;
    sc.duration = 2.0;
    const TracedRun seq = traced_run(sc, 1);
    const TracedRun par = traced_run(sc, 2);
    EXPECT_EQ(seq.jsonl, par.jsonl);
  }
}

TraceRecord rec(TraceEventType type, Time t, std::int32_t flow,
                std::int64_t seq, double value, std::uint8_t site = 0) {
  TraceRecord r;
  r.type = type;
  r.time = t;
  r.flow = flow;
  r.seq = seq;
  r.value = value;
  r.site = site;
  return r;
}

// Hand-built merge golden: two parts with private site/state registries,
// interleaved times, an equal-(time, tie) cross-part collision (stable
// part order must break it), and a lazily-closed aggregate that must sort
// AFTER the same-instant live record despite living in the earlier part.
TEST(TraceMerge, MergedGoldenByteExact) {
  TraceSink a(64), b(64);
  a.set_stamp(nullptr, 0);  // tie = record time, like a 1-LP sink
  b.set_stamp(nullptr, 1);

  const std::uint8_t aq = a.register_site("queue:gateway");
  a.emit(rec(TraceEventType::kQueueEnqueue, 0.5, 1, 0, 1.0, aq));
  a.emit(rec(TraceEventType::kQueueDequeue, 1.5, 1, 0, 0.0, aq));
  {
    TraceRecord r = rec(TraceEventType::kCcStateChange, 2.0, 1, -1, 4.0);
    r.detail = a.intern_state("slow-start");
    a.emit(r);
  }
  {
    // Drop cluster closed late: logical time 1.0, emitted last.
    TraceRecord r = rec(TraceEventType::kCongestionEvent, 1.0, -1, 3, 2.0, aq);
    r.aux = 0.25;
    a.emit_aggregate(r);
  }

  const std::uint8_t bl = b.register_site("link:bottleneck");
  b.emit(rec(TraceEventType::kLinkDeliver, 1.0, 2, 5, 1000.0, bl));
  b.emit(rec(TraceEventType::kLinkDeliver, 1.5, 1, 0, 1000.0, bl));
  {
    TraceRecord r = rec(TraceEventType::kCcStateChange, 2.5, 2, -1, 2.0);
    r.detail = b.intern_state("fast-recovery");
    b.emit(r);
  }

  TraceSink merged(64);
  merged.merge_from({&a, &b});
  EXPECT_EQ(merged.emitted(), 7u);
  // Part registries remapped by name: queue:gateway -> 1, link -> 2;
  // slow-start -> 0, fast-recovery -> 1 (part order).
  std::ostringstream os;
  ASSERT_TRUE(merged.write_jsonl(os));
  const std::string expected =
      "{\"t\":0.5,\"type\":\"queue_enqueue\",\"site\":\"queue:gateway\","
      "\"flow\":1,\"seq\":0,\"value\":1,\"aux\":0,\"detail\":0}\n"
      "{\"t\":1,\"type\":\"link_deliver\",\"site\":\"link:bottleneck\","
      "\"flow\":2,\"seq\":5,\"value\":1000,\"aux\":0,\"detail\":0}\n"
      "{\"t\":1,\"type\":\"congestion_event\",\"site\":\"queue:gateway\","
      "\"flow\":-1,\"seq\":3,\"value\":2,\"aux\":0.25,\"detail\":0}\n"
      "{\"t\":1.5,\"type\":\"queue_dequeue\",\"site\":\"queue:gateway\","
      "\"flow\":1,\"seq\":0,\"value\":0,\"aux\":0,\"detail\":0}\n"
      "{\"t\":1.5,\"type\":\"link_deliver\",\"site\":\"link:bottleneck\","
      "\"flow\":1,\"seq\":0,\"value\":1000,\"aux\":0,\"detail\":0}\n"
      "{\"t\":2,\"type\":\"cc_state_change\",\"site\":\"unknown\","
      "\"flow\":1,\"seq\":-1,\"value\":4,\"aux\":0,\"detail\":0,"
      "\"state\":\"slow-start\"}\n"
      "{\"t\":2.5,\"type\":\"cc_state_change\",\"site\":\"unknown\","
      "\"flow\":2,\"seq\":-1,\"value\":2,\"aux\":0,\"detail\":1,"
      "\"state\":\"fast-recovery\"}\n";
  EXPECT_EQ(os.str(), expected);
}

// What merge_from must equal: the parts' held records (emission order,
// oldest first) concatenated in LP order and stable-sorted by (time, tie).
// Kept here as the reference; merge_from itself never sorts the bulk.
std::vector<TraceRecord> concat_stable_sort(
    const std::vector<std::vector<TraceRecord>>& parts) {
  std::vector<TraceRecord> all;
  for (const std::vector<TraceRecord>& p : parts) {
    all.insert(all.end(), p.begin(), p.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.tie < b.tie;
                   });
  return all;
}

// A part under construction: a sink stamped from a tie clock the test
// drives, plus the log of what it holds, stamped as the sink stamps.
struct HandPart {
  explicit HandPart(std::uint8_t lp, std::size_t bound = 64) : sink(bound) {
    sink.set_stamp(&clock, lp);
  }
  void live(Time t, Time tie, std::int64_t id) {
    clock = tie;
    TraceRecord r = rec(TraceEventType::kQueueEnqueue, t, 1, id, 0.0);
    sink.emit(r);
    r.tie = tie;
    log(r);
  }
  void aggregate(Time t, std::int64_t id) {
    TraceRecord r = rec(TraceEventType::kCongestionEvent, t, -1, id, 0.0);
    sink.emit_aggregate(r);
    r.tie = kTimeNever;
    log(r);
  }
  void log(TraceRecord r) {
    r.lp = sink.lp();
    held.push_back(r);
    if (held.size() > sink.capacity()) held.erase(held.begin());
  }
  Time clock = 0.0;
  TraceSink sink;
  std::vector<TraceRecord> held;
};

void expect_same_order(const std::vector<TraceRecord>& got,
                       const std::vector<TraceRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("position " + std::to_string(i));
    EXPECT_EQ(got[i].seq, want[i].seq);
    EXPECT_EQ(got[i].time, want[i].time);
    EXPECT_EQ(got[i].tie, want[i].tie);
    EXPECT_EQ(got[i].lp, want[i].lp);
  }
}

// Two hand-built parts, each holding a lazily-closed aggregate, with
// (time, tie) keys shared across the parts (the lower LP goes first) and
// within a part (emission order goes first).
TEST(TraceMerge, EqualsStableSortOfTheConcatenation) {
  HandPart a(0), b(1);
  a.live(1.0, 0.9, 1);
  a.live(1.0, 1.0, 2);
  a.live(2.0, 2.0, 3);
  a.live(2.0, 2.0, 4);  // same key as 3, same part
  a.aggregate(1.0, 5);  // closed late, after the t=2 records
  a.live(3.0, 2.5, 6);

  b.live(1.0, 1.0, 11);  // same key as a's 2
  b.live(2.0, 2.0, 12);  // same key as a's 3 and 4
  b.live(2.5, 2.4, 14);
  b.aggregate(2.0, 13);  // closed late, after the t=2.5 record
  b.live(3.0, 2.5, 15);  // same key as a's 6
  b.aggregate(1.0, 16);  // same (time, tie) as a's aggregate 5

  TraceSink merged(64);
  merged.merge_from({&a.sink, &b.sink});
  const std::vector<TraceRecord> got = merged.ordered();
  const std::vector<TraceRecord> want = concat_stable_sort({a.held, b.held});
  expect_same_order(got, want);

  std::vector<std::int64_t> ids;
  for (const TraceRecord& r : got) ids.push_back(r.seq);
  EXPECT_EQ(ids, (std::vector<std::int64_t>{1, 2, 11, 5, 16, 3, 4, 12, 13,
                                            14, 6, 15}));
}

// The same equality over random parts: three LPs, coarse keys so equal
// (time, tie) pairs are common, late aggregates up to 20 steps in the
// past, and one part whose ring wrapped.
TEST(TraceMerge, RandomPartsEqualStableSortOfTheConcatenation) {
  std::mt19937_64 rng(4242);
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<HandPart> parts;
    parts.reserve(3);
    parts.emplace_back(0, 4096);
    parts.emplace_back(1, 300);  // wraps
    parts.emplace_back(2, 4096);
    std::int64_t id = 0;
    for (HandPart& p : parts) {
      Time now = 0.0;
      for (int i = 0; i < 1000; ++i) {
        now += static_cast<double>(rng() % 2) * 0.5;
        if (rng() % 25 == 0) {
          p.aggregate(
              std::max(0.0, now - static_cast<double>(rng() % 20) * 0.5),
              id++);
        } else {
          p.live(now, now - static_cast<double>(rng() % 2) * 0.25, id++);
        }
      }
    }
    TraceSink merged(1 << 14);
    merged.merge_from({&parts[0].sink, &parts[1].sink, &parts[2].sink});
    expect_same_order(merged.ordered(), concat_stable_sort({parts[0].held,
                                                            parts[1].held,
                                                            parts[2].held}));
  }
}

// Parallel-runtime telemetry: the deterministic LpStats subset must land
// in the metrics snapshot (and from there in campaign metrics.csv), with
// per-LP splits; wall-clock values must NOT (registry determinism backs
// the result cache).
TEST(ParallelTelemetry, DeterministicSubsetInMetrics) {
  Scenario sc = small_scenario(Transport::kReno, GatewayQueue::kRed);
  ExperimentOptions opts;
  opts.lp_shards = 2;
  const ExperimentResult r = run_experiment(sc, opts);
  ASSERT_EQ(r.lp_shards, 2);

  const MetricPoint* shards = r.metrics.find("parallel.shards");
  ASSERT_NE(shards, nullptr);
  EXPECT_EQ(static_cast<int>(shards->value), 2);
  ASSERT_NE(r.metrics.find("parallel.lookahead"), nullptr);
  const MetricPoint* windows = r.metrics.find("parallel.windows");
  ASSERT_NE(windows, nullptr);
  EXPECT_GT(windows->value, 0.0);
  std::uint64_t lp_events = 0;
  for (int lp = 0; lp < 2; ++lp) {
    const std::string prefix = "parallel.lp" + std::to_string(lp);
    const MetricPoint* ev = r.metrics.find(prefix + ".events");
    ASSERT_NE(ev, nullptr) << prefix;
    lp_events += static_cast<std::uint64_t>(ev->value);
    EXPECT_NE(r.metrics.find(prefix + ".msgs_in"), nullptr);
    EXPECT_NE(r.metrics.find(prefix + ".msgs_out"), nullptr);
    EXPECT_NE(r.metrics.find(prefix + ".merge_high_water"), nullptr);
    EXPECT_NE(r.metrics.find(prefix + ".horizon_advance_mean"), nullptr);
  }
  EXPECT_EQ(lp_events, r.sim_events);

  ASSERT_EQ(r.lp_stats.size(), 2u);
  for (const LpStats& p : r.lp_stats) {
    EXPECT_GT(p.windows, 0u);
    EXPECT_GT(horizon_advance_mean(p), 0.0);
  }

  // Sequential runs carry none of it.
  const ExperimentResult seq = run_experiment(sc);
  EXPECT_EQ(seq.metrics.find("parallel.shards"), nullptr);
  EXPECT_TRUE(seq.lp_stats.empty());
}

// The per-window log (and from it the .runtime.perfetto export) is
// collected only for traced parallel runs, and the writer produces a
// well-formed trace-event JSON with one thread track per LP.
TEST(ParallelTelemetry, RuntimeTimelineExport) {
  Scenario sc = small_scenario(Transport::kReno, GatewayQueue::kRed);
  sc.duration = 2.0;

  ExperimentOptions opts;
  opts.lp_shards = 2;
  const ExperimentResult bare = run_experiment(sc, opts);
  EXPECT_TRUE(bare.lp_windows.empty());  // no trace -> no window log

  TraceSink sink;
  opts.trace = &sink;
  const ExperimentResult traced = run_experiment(sc, opts);
  ASSERT_EQ(traced.lp_windows.size(), 2u);
  ASSERT_EQ(traced.lp_stats.size(), 2u);
  // Every LP logged every one of its windows.
  EXPECT_EQ(traced.lp_windows[0].size(), traced.lp_stats[0].windows);
  EXPECT_EQ(traced.lp_windows[1].size(), traced.lp_stats[1].windows);

  std::ostringstream os;
  ASSERT_TRUE(write_runtime_trace(os, traced.lp_stats, traced.lp_windows));
  const std::string out = os.str();
  EXPECT_EQ(out.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", 0),
            0u);
  EXPECT_EQ(out.substr(out.size() - 4), "\n]}\n");
  EXPECT_NE(out.find("\"parallel runtime\""), std::string::npos);
  EXPECT_NE(out.find("\"lp 0\""), std::string::npos);
  EXPECT_NE(out.find("\"lp 1\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"run\",\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"lp_summary\""), std::string::npos);
  EXPECT_NE(out.find("gmin lp0"), std::string::npos);
}

// ---- Flight recorder -------------------------------------------------

// The budget is reserved once and never grows: a run that outlives
// max_samples decimates (halve the held samples, double the cadence)
// instead of reallocating.
TEST(FlightRecorder, FixedBudgetDecimates) {
  FlightRecorderOptions fo;
  fo.period = 0.25;
  fo.max_samples = 4;
  FlightRecorder fr(fo);
  Simulator sim;
  fr.arm(sim, 4.0);
  EXPECT_EQ(fr.bytes_reserved(), 4 * sizeof(FlightSample));
  sim.run(4.0);

  EXPECT_GT(fr.decimations(), 0u);
  EXPECT_LE(fr.samples().size(), 4u);
  EXPECT_GT(fr.samples().size(), 0u);
  EXPECT_GT(fr.taken(), fr.samples().size());
  // Period doubled once per decimation.
  EXPECT_DOUBLE_EQ(
      fr.period(),
      0.25 * static_cast<double>(std::uint64_t{1} << fr.decimations()));
  // Samples stay in time order and within the horizon.
  for (std::size_t i = 0; i < fr.samples().size(); ++i) {
    EXPECT_LE(fr.samples()[i].t, 4.0);
    if (i > 0) {
      EXPECT_GT(fr.samples()[i].t, fr.samples()[i - 1].t);
    }
  }
}

// Sampling reads state but never mutates it: dynamics are unperturbed
// (delivered/cov/drops identical), only the event count grows by the
// sampler's own wake-ups.
TEST(FlightRecorder, DoesNotPerturbDynamics) {
  Scenario sc = small_scenario(Transport::kReno, GatewayQueue::kRed);
  sc.num_clients = 8;
  sc.duration = 2.0;

  const ExperimentResult bare = run_experiment(sc);

  FlightRecorder fr;
  ExperimentOptions opts;
  opts.flight = &fr;
  const ExperimentResult recorded = run_experiment(sc, opts);

  EXPECT_EQ(bare.delivered, recorded.delivered);
  EXPECT_EQ(bare.gw_drops, recorded.gw_drops);
  EXPECT_DOUBLE_EQ(bare.cov, recorded.cov);
  EXPECT_GT(recorded.sim_events, bare.sim_events);

  ASSERT_GT(fr.samples().size(), 0u);
  // Queue + arena were observed: arrivals accumulate and the cwnd
  // histogram counts every sender.
  std::uint64_t arrivals = 0;
  std::uint32_t last_hist = 0;
  for (const FlightSample& s : fr.samples()) {
    arrivals += s.arrivals;
    last_hist = 0;
    for (const std::uint32_t b : s.cwnd_hist) last_hist += b;
  }
  EXPECT_GT(arrivals, 0u);
  EXPECT_EQ(last_hist, static_cast<std::uint32_t>(sc.num_clients));
  EXPECT_GT(fr.samples().back().cwnd_max, 0.0);
}

TEST(FlightRecorder, CsvAndJsonlExports) {
  Scenario sc = small_scenario(Transport::kReno, GatewayQueue::kRed);
  sc.num_clients = 6;
  sc.duration = 1.0;
  FlightRecorder fr;
  ExperimentOptions opts;
  opts.flight = &fr;
  run_experiment(sc, opts);
  ASSERT_GT(fr.samples().size(), 0u);

  std::ostringstream csv;
  ASSERT_TRUE(fr.write_csv(csv));
  const std::string c = csv.str();
  EXPECT_EQ(c.rfind("t,interval,qlen,red_avg,events,arrivals,drops,cov,"
                    "cwnd_mean,cwnd_max,cwnd_hist0",
                    0),
            0u);
  // Header + one line per sample.
  const auto lines = static_cast<std::size_t>(
      std::count(c.begin(), c.end(), '\n'));
  EXPECT_EQ(lines, fr.samples().size() + 1);

  std::ostringstream jsonl;
  ASSERT_TRUE(fr.write_jsonl(jsonl));
  const std::string j = jsonl.str();
  EXPECT_EQ(j.rfind("{\"t\":", 0), 0u);
  EXPECT_NE(j.find("\"type\":\"fr_sample\""), std::string::npos);
  EXPECT_NE(j.find("\"cwnd_hist\":["), std::string::npos);
  EXPECT_EQ(static_cast<std::size_t>(std::count(j.begin(), j.end(), '\n')),
            fr.samples().size());
}

}  // namespace
}  // namespace burst
