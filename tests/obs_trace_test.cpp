#include "src/obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/experiment.hpp"
#include "src/net/drop_tail_queue.hpp"
#include "src/net/link.hpp"
#include "src/run/result_store.hpp"
#include "src/sim/simulator.hpp"
#include "src/topo/spec.hpp"

namespace burst {
namespace {

Packet data(FlowId flow, std::int64_t seq, int bytes = 1000) {
  Packet p;
  p.flow = flow;
  p.seq = seq;
  p.size_bytes = bytes;
  return p;
}

TraceRecord record(TraceEventType type, Time t, double value = 0.0) {
  TraceRecord r;
  r.type = type;
  r.time = t;
  r.value = value;
  return r;
}

TraceRecord cwnd_change(std::int32_t flow, Time t, double cwnd) {
  TraceRecord r = record(TraceEventType::kCwndChange, t, cwnd);
  r.flow = flow;
  return r;
}

TEST(TraceSink, RingOverwritesOldestAndCounts) {
  TraceSink sink(/*capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    sink.emit(record(TraceEventType::kSourceEmit, static_cast<Time>(i), i));
  }
  EXPECT_EQ(sink.emitted(), 6u);
  EXPECT_EQ(sink.dropped(), 2u);
  EXPECT_EQ(sink.size(), 4u);
  const std::vector<TraceRecord> got = sink.ordered();
  ASSERT_EQ(got.size(), 4u);
  // Records 0 and 1 were overwritten; 2..5 survive in time order.
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(i)].time, i + 2.0);
  }

  // The capacity is a bound that storage grows towards on demand: a
  // bound that is no power of two, filled through several growth steps
  // and then well past it, must count and hold exactly what a ring
  // allocated whole up front would — the newest min(n, bound) records,
  // oldest first.
  constexpr std::size_t kBound = 150000;
  TraceSink grown(kBound);
  EXPECT_EQ(grown.capacity(), kBound);
  EXPECT_EQ(grown.size(), 0u);
  EXPECT_TRUE(grown.ordered().empty());
  std::size_t n = 0;
  for (const std::size_t checkpoint :
       {std::size_t{1}, std::size_t{65535}, std::size_t{65536},
        std::size_t{65537}, std::size_t{131072}, std::size_t{131073},
        kBound - 1, kBound, kBound + 1, std::size_t{262144}, 2 * kBound,
        2 * kBound + 7, std::size_t{375000}}) {
    for (; n < checkpoint; ++n) {
      grown.emit(record(TraceEventType::kSourceEmit, static_cast<Time>(n),
                        static_cast<double>(n)));
    }
    SCOPED_TRACE("after " + std::to_string(n) + " records");
    const std::size_t held = std::min(n, kBound);
    EXPECT_EQ(grown.emitted(), n);
    EXPECT_EQ(grown.size(), held);
    EXPECT_EQ(grown.dropped(), n - held);
    EXPECT_EQ(grown.capacity(), kBound);
    const std::vector<TraceRecord> kept = grown.ordered();
    ASSERT_EQ(kept.size(), held);
    for (std::size_t i = 0; i < held; ++i) {
      ASSERT_EQ(kept[i].time, static_cast<Time>(n - held + i)) << i;
    }
  }
}

// ordered() is a stable sort by time, whatever the emission order: late
// records (aggregates closed after later ones), equal timestamps whose
// emission order must survive, and a ring that wrapped.
TEST(TraceSink, OrderedIsAStableSortByTime) {
  std::mt19937_64 rng(99);
  for (const std::size_t bound : {std::size_t{50000}, std::size_t{777}}) {
    SCOPED_TRACE("bound " + std::to_string(bound));
    TraceSink sink(bound);
    std::vector<TraceRecord> emitted;
    Time now = 0.0;
    for (int i = 0; i < 5000; ++i) {
      now += static_cast<double>(rng() % 3) * 0.25;  // many equal stamps
      TraceRecord r = record(TraceEventType::kQueueEnqueue, now);
      r.seq = i;  // identifies the record
      if (rng() % 40 == 0) {
        // Closed late: stamped up to 20 steps in the past.
        r.type = TraceEventType::kCongestionEvent;
        r.time = std::max(0.0, now - static_cast<double>(rng() % 20) * 0.25);
        sink.emit_aggregate(r);
      } else {
        sink.emit(r);
      }
      emitted.push_back(r);
    }
    const std::size_t held = std::min(emitted.size(), bound);
    std::vector<TraceRecord> want(
        emitted.end() - static_cast<std::ptrdiff_t>(held), emitted.end());
    std::stable_sort(want.begin(), want.end(),
                     [](const TraceRecord& a, const TraceRecord& b) {
                       return a.time < b.time;
                     });
    const std::vector<TraceRecord> got = sink.ordered();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].seq, want[i].seq) << "position " << i;
    }
  }
}

TEST(TraceSink, OrderedSortsLateEmissionsByTime) {
  TraceSink sink;
  sink.emit(record(TraceEventType::kQueueDrop, 1.0));
  sink.emit(record(TraceEventType::kQueueDrop, 3.0));
  // A lazily-closed aggregate (FlowMonitor's final congestion event) is
  // emitted after later records but carries the cluster's start time.
  sink.emit(record(TraceEventType::kCongestionEvent, 2.0));
  const std::vector<TraceRecord> got = sink.ordered();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_DOUBLE_EQ(got[0].time, 1.0);
  EXPECT_DOUBLE_EQ(got[1].time, 2.0);
  EXPECT_EQ(got[1].type, TraceEventType::kCongestionEvent);
  EXPECT_DOUBLE_EQ(got[2].time, 3.0);
}

TEST(TraceSink, RegisterSiteDeduplicatesAndInternsStates) {
  TraceSink sink;
  const std::uint8_t a = sink.register_site("queue:gateway");
  const std::uint8_t b = sink.register_site("link:bottleneck");
  EXPECT_NE(a, b);
  EXPECT_EQ(sink.register_site("queue:gateway"), a);
  EXPECT_EQ(sink.sites()[a], "queue:gateway");

  const std::uint16_t s = sink.intern_state("slow-start");
  EXPECT_EQ(sink.intern_state("slow-start"), s);
  EXPECT_EQ(sink.states()[s], "slow-start");
}

// A flow's cwnd series keeps only its own kCwndChange records, in
// ordered()'s order: a late emission sorts by time, and a same-instant
// pair keeps its emission order, so value_at reads the later one.
TEST(TraceSink, CwndSeriesIsOneFlowsCwndChangesInExportOrder) {
  TraceSink sink;
  sink.emit(cwnd_change(0, 1.0, 2.0));
  sink.emit(cwnd_change(1, 1.5, 5.0));
  TraceRecord state = record(TraceEventType::kCcStateChange, 2.0, 3.0);
  state.flow = 0;
  sink.emit(state);
  sink.emit(cwnd_change(0, 3.0, 4.0));
  sink.emit(cwnd_change(0, 3.0, 3.5));
  sink.emit(cwnd_change(0, 2.5, 6.0));
  using Points = std::vector<std::pair<Time, double>>;
  const TraceSeries flow0 = sink.cwnd_series(0, "client 1");
  EXPECT_EQ(flow0.name(), "client 1");
  EXPECT_EQ(flow0.points(),
            (Points{{1.0, 2.0}, {2.5, 6.0}, {3.0, 4.0}, {3.0, 3.5}}));
  EXPECT_EQ(flow0.value_at(3.0), 3.5);
  EXPECT_EQ(sink.cwnd_series(1, "client 2").points(), (Points{{1.5, 5.0}}));
  const TraceSeries untraced = sink.cwnd_series(2, "client 3");
  EXPECT_EQ(untraced.name(), "client 3");
  EXPECT_TRUE(untraced.empty());
}

// A ring that overwrote records holds only a flow's newest changes, so
// its series starts late: readers refuse a sink with dropped() > 0.
TEST(TraceSink, CwndSeriesOfAWrappedRingStartsLate) {
  TraceSink sink(/*capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    sink.emit(cwnd_change(0, static_cast<Time>(i), i + 1.0));
  }
  ASSERT_EQ(sink.dropped(), 2u);
  EXPECT_EQ(sink.cwnd_series(0, "").points(),
            (std::vector<std::pair<Time, double>>{
                {2.0, 3.0}, {3.0, 4.0}, {4.0, 5.0}, {5.0, 6.0}}));
}

// Golden JSONL export for a hand-built link scenario whose every timestamp
// is exactly representable: 1000-byte packets over an 8000 bps wire
// (tx = 1.0 s) with 0.5 s propagation. Two packets offered at t=0:
// the first transmits immediately, the second waits one transmission.
TEST(TraceExport, JsonlGolden) {
  Simulator sim;
  SimplexLink link(sim, std::make_unique<DropTailQueue>(10),
                   /*bandwidth_bps=*/8000.0, /*prop_delay=*/0.5);
  link.set_receiver([](const Packet&) {});

  TraceSink sink;
  const std::uint8_t qsite = sink.register_site("queue:gateway");
  const std::uint8_t lsite = sink.register_site("link:bottleneck");
  link.queue().set_trace(&sink, qsite);
  link.set_trace(&sink, lsite);

  link.send(data(1, 0));
  link.send(data(2, 1));
  sim.run();

  std::ostringstream os;
  ASSERT_TRUE(sink.write_jsonl(os));
  const std::string expected =
      "{\"t\":0,\"type\":\"queue_enqueue\",\"site\":\"queue:gateway\","
      "\"flow\":1,\"seq\":0,\"value\":1,\"aux\":0,\"detail\":0}\n"
      "{\"t\":0,\"type\":\"queue_dequeue\",\"site\":\"queue:gateway\","
      "\"flow\":1,\"seq\":0,\"value\":0,\"aux\":0,\"detail\":0}\n"
      "{\"t\":0,\"type\":\"queue_enqueue\",\"site\":\"queue:gateway\","
      "\"flow\":2,\"seq\":1,\"value\":1,\"aux\":0,\"detail\":0}\n"
      "{\"t\":1,\"type\":\"queue_dequeue\",\"site\":\"queue:gateway\","
      "\"flow\":2,\"seq\":1,\"value\":0,\"aux\":0,\"detail\":0}\n"
      "{\"t\":1.5,\"type\":\"link_deliver\",\"site\":\"link:bottleneck\","
      "\"flow\":1,\"seq\":0,\"value\":1000,\"aux\":0,\"detail\":0}\n"
      "{\"t\":2.5,\"type\":\"link_deliver\",\"site\":\"link:bottleneck\","
      "\"flow\":2,\"seq\":1,\"value\":1000,\"aux\":0,\"detail\":0}\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(TraceExport, JsonlStateNameOnCcStateChange) {
  TraceSink sink;
  TraceRecord r = record(TraceEventType::kCcStateChange, 0.25, 4.0);
  r.detail = sink.intern_state("fast-recovery");
  sink.emit(r);
  std::ostringstream os;
  ASSERT_TRUE(sink.write_jsonl(os));
  EXPECT_NE(os.str().find("\"type\":\"cc_state_change\""), std::string::npos);
  EXPECT_NE(os.str().find(",\"state\":\"fast-recovery\"}"),
            std::string::npos);
}

TEST(TraceExport, ChromeTraceStructure) {
  Simulator sim;
  SimplexLink link(sim, std::make_unique<DropTailQueue>(10), 8000.0, 0.5);
  link.set_receiver([](const Packet&) {});
  TraceSink sink;
  link.queue().set_trace(&sink, sink.register_site("queue:gateway"));
  link.set_trace(&sink, sink.register_site("link:bottleneck"));
  link.send(data(1, 0));
  sim.run();

  std::ostringstream os;
  ASSERT_TRUE(sink.write_chrome_trace(os));
  const std::string out = os.str();
  // Opens as a trace-event JSON object, metadata first, and closes the
  // traceEvents array.
  EXPECT_EQ(out.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", 0),
            0u);
  EXPECT_EQ(out.substr(out.size() - 4), "\n]}\n");
  EXPECT_NE(out.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"qlen queue:gateway\",\"ph\":\"C\""),
            std::string::npos);
  EXPECT_NE(out.find("\"name\":\"deliver\",\"ph\":\"i\""), std::string::npos);
  // ts is in microseconds: delivery at 1.5 s -> 1500000.
  EXPECT_NE(out.find("\"ts\":1500000"), std::string::npos);
}

// A traced full experiment emits every record in nondecreasing ordered()
// time, covers the expected sites, and sees the transport transitions.
TEST(TraceExperiment, OrderedAgainstSchedulerTime) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 10;
  sc.duration = 3.0;
  sc.delayed_ack = true;  // exercises the delayed-ACK sink path too

  TraceSink sink;
  ExperimentOptions opts;
  opts.trace = &sink;
  const ExperimentResult r = run_experiment(sc, opts);

  EXPECT_GT(sink.emitted(), 0u);
  const std::vector<TraceRecord> got = sink.ordered();
  ASSERT_EQ(got.size(), sink.size());
  bool saw_enqueue = false, saw_deliver = false, saw_ack = false;
  bool saw_cwnd = false, saw_emit = false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (i > 0) {
      ASSERT_GE(got[i].time, got[i - 1].time) << "record " << i;
    }
    EXPECT_LE(got[i].time, sc.duration + 1.0);
    saw_enqueue |= got[i].type == TraceEventType::kQueueEnqueue;
    saw_deliver |= got[i].type == TraceEventType::kLinkDeliver;
    saw_ack |= got[i].type == TraceEventType::kSinkAck;
    saw_cwnd |= got[i].type == TraceEventType::kCwndChange;
    saw_emit |= got[i].type == TraceEventType::kSourceEmit;
  }
  EXPECT_TRUE(saw_enqueue);
  EXPECT_TRUE(saw_deliver);
  EXPECT_TRUE(saw_ack);
  EXPECT_TRUE(saw_cwnd);
  EXPECT_TRUE(saw_emit);
  // Source emissions must match the experiment's own count.
  std::uint64_t emits = 0;
  for (const TraceRecord& rec : got) {
    if (rec.type == TraceEventType::kSourceEmit) ++emits;
  }
  EXPECT_EQ(emits, r.app_generated);

  // The dumbbell registered its fixed sites.
  bool queue_site = false, link_site = false, sink_site = false;
  for (const std::string& s : sink.sites()) {
    queue_site |= s == "queue:gateway";
    link_site |= s == "link:bottleneck";
    sink_site |= s == "sink:server";
  }
  EXPECT_TRUE(queue_site);
  EXPECT_TRUE(link_site);
  EXPECT_TRUE(sink_site);
}

// Trace sites follow the runner's naming rule: the paper dumbbell keeps
// its historical site names even when traced on 2 LPs (the per-LP rings
// merge into one sink); any other graph uses the generic ones.
TEST(TraceExperiment, SiteNamesFollowTheNamingRule) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 6;
  sc.duration = 2.0;
  const auto has_site = [](const TraceSink& sink, const std::string& name) {
    for (const std::string& s : sink.sites()) {
      if (s == name) return true;
    }
    return false;
  };

  TraceSink dumbbell;
  ExperimentOptions lp2;
  lp2.trace = &dumbbell;
  lp2.lp_shards = 2;
  EXPECT_EQ(run_experiment(sc, lp2).lp_shards, 2);
  EXPECT_TRUE(has_site(dumbbell, "queue:gateway"));
  EXPECT_TRUE(has_site(dumbbell, "link:bottleneck"));
  EXPECT_TRUE(has_site(dumbbell, "sink:server"));
  EXPECT_FALSE(has_site(dumbbell, "queue:measured"));

  TraceSink tandem;
  ExperimentOptions traced;
  traced.trace = &tandem;
  run_experiment(make_tandem_spec(sc, 0.9), traced);
  EXPECT_GT(tandem.emitted(), 0u);
  EXPECT_TRUE(has_site(tandem, "queue:measured"));
  EXPECT_TRUE(has_site(tandem, "link:measured"));
  EXPECT_FALSE(has_site(tandem, "queue:gateway"));
  EXPECT_FALSE(has_site(tandem, "link:bottleneck"));
}

// The observability hard constraint: attaching a TraceSink must not change
// the simulation. Every serialized metric — including the v3 metrics
// snapshot — is bit-identical between a traced and an untraced run.
TEST(TraceExperiment, TracedRunIsBitIdenticalToUntraced) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 20;
  sc.duration = 3.0;

  const ExperimentResult plain = run_experiment(sc);

  TraceSink sink;
  ExperimentOptions opts;
  opts.trace = &sink;
  const ExperimentResult traced = run_experiment(sc, opts);

  EXPECT_GT(sink.emitted(), 0u);
  EXPECT_EQ(result_to_json(plain), result_to_json(traced));
  EXPECT_EQ(plain.metrics, traced.metrics);
}

}  // namespace
}  // namespace burst
