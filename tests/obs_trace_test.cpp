#include "src/obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/experiment.hpp"
#include "src/net/drop_tail_queue.hpp"
#include "src/net/drr_queue.hpp"
#include "src/net/link.hpp"
#include "src/run/result_store.hpp"
#include "src/sim/simulator.hpp"
#include "src/topo/builder.hpp"
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

TraceRecord drop(std::uint8_t site, std::int32_t flow, Time t,
                 std::uint16_t detail = kTraceDropForced) {
  TraceRecord r = record(TraceEventType::kQueueDrop, t);
  r.site = site;
  r.flow = flow;
  r.detail = detail;
  return r;
}

std::vector<TraceRecord> of_type(const TraceSink& sink, TraceEventType type) {
  std::vector<TraceRecord> out;
  for (const TraceRecord& r : sink.ordered()) {
    if (r.type == type) out.push_back(r);
  }
  return out;
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
  // An aggregate (a congestion event, written once the run is over) is
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

// The one-walk read gives each requested flow its own series under the
// name asked for: a flow asked for twice gets it twice, and a flow with
// no records, or a negative one, gets an empty series.
TEST(TraceSink, CwndSeriesOfManyFlowsAreEachFlowsOwn) {
  TraceSink sink;
  sink.emit(cwnd_change(3, 1.0, 2.0));
  sink.emit(cwnd_change(0, 1.5, 5.0));
  sink.emit(cwnd_change(3, 2.0, 3.0));
  sink.emit(cwnd_change(0, 0.5, 4.0));  // late: sorts first
  const std::vector<TraceSeries> got =
      sink.cwnd_series({3, 0, 3, 2, -1}, {"a", "b", "c", "d", "e"});
  using Points = std::vector<std::pair<Time, double>>;
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[0].name(), "a");
  EXPECT_EQ(got[0].points(), (Points{{1.0, 2.0}, {2.0, 3.0}}));
  EXPECT_EQ(got[1].name(), "b");
  EXPECT_EQ(got[1].points(), (Points{{0.5, 4.0}, {1.5, 5.0}}));
  EXPECT_EQ(got[2].name(), "c");
  EXPECT_EQ(got[2].points(), got[0].points());
  EXPECT_EQ(got[3].name(), "d");
  EXPECT_TRUE(got[3].empty());
  EXPECT_EQ(got[4].name(), "e");
  EXPECT_TRUE(got[4].empty());
  EXPECT_TRUE(sink.cwnd_series(std::vector<std::int32_t>{}, {}).empty());
}

// A drop more than the gap after the previous one opens the next
// cluster; a silence of exactly the gap does not. Each cluster keeps its
// first and last drop, its drop count and the flows it hit.
TEST(TraceSink, DropClustersSplitWhereTheSilenceExceedsTheGap) {
  TraceSink sink;
  const std::uint8_t q = sink.register_site("queue:gateway");
  sink.emit(drop(q, 1, 1.0));
  sink.emit(drop(q, 2, 1.25));
  sink.emit(drop(q, 3, 1.75));  // exactly the gap after the previous
  sink.emit(drop(q, 4, 2.5));
  const std::vector<DropCluster> c = sink.drop_clusters(q, 0.5);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0].first, 1.0);
  EXPECT_EQ(c[0].last, 1.75);
  EXPECT_EQ(c[0].flows, 3);
  EXPECT_EQ(c[0].drops, 3u);
  EXPECT_EQ(c[1].first, 2.5);
  EXPECT_EQ(c[1].last, 2.5);
  EXPECT_EQ(c[1].flows, 1);
  EXPECT_EQ(c[1].drops, 1u);
}

TEST(TraceSink, DropClustersCountAFlowOncePerCluster) {
  TraceSink sink;
  const std::uint8_t q = sink.register_site("queue:gateway");
  for (const Time t : {1.0, 1.01, 1.02}) sink.emit(drop(q, 7, t));
  sink.emit(drop(q, 8, 1.03));
  sink.emit(drop(q, 7, 5.0));
  const std::vector<DropCluster> c = sink.drop_clusters(q, 0.5);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0].flows, 2);
  EXPECT_EQ(c[0].drops, 4u);
  EXPECT_EQ(c[1].flows, 1);
  EXPECT_EQ(c[1].drops, 1u);
}

// Only the site's data drops cluster: an ACK drop, another site's drop
// or any other record in the silence does not bridge it.
TEST(TraceSink, DropClustersSkipAckDropsOtherSitesAndOtherRecords) {
  TraceSink sink;
  const std::uint8_t q = sink.register_site("queue:gateway");
  const std::uint8_t other = sink.register_site("queue:access");
  sink.emit(drop(q, 1, 1.0));
  sink.emit(drop(q, 2, 1.4, kTraceDropForced | kTraceDetailAck));
  sink.emit(drop(other, 3, 1.5));
  TraceRecord enqueue = record(TraceEventType::kQueueEnqueue, 1.6);
  enqueue.site = q;
  sink.emit(enqueue);
  sink.emit(drop(q, 4, 1.8));
  const std::vector<DropCluster> c = sink.drop_clusters(q, 0.5);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0].first, 1.0);
  EXPECT_EQ(c[0].drops, 1u);
  EXPECT_EQ(c[1].first, 1.8);
  EXPECT_EQ(c[1].drops, 1u);
  EXPECT_EQ(sink.drop_clusters(other, 0.5).size(), 1u);
}

TEST(TraceSink, DropClustersOfALosslessTraceAreEmpty) {
  DropTailQueue q(100);
  TraceSink sink;
  const std::uint8_t site = sink.register_site("queue:gateway");
  q.set_trace(&sink, site);
  for (int i = 0; i < 5; ++i) q.enqueue(data(i, 0), 0.1 * i);
  ASSERT_EQ(sink.size(), 5u);
  EXPECT_TRUE(sink.drop_clusters(site, 0.01).empty());
}

// DRR's longest-queue drop displaces a buffered packet of another flow:
// that flow was hit too.
TEST(TraceSink, DropClustersCountDisplacedDrops) {
  DrrConfig cfg;
  cfg.capacity = 2;
  DrrQueue q(cfg);
  TraceSink sink;
  const std::uint8_t site = sink.register_site("queue:gateway");
  q.set_trace(&sink, site);
  q.enqueue(data(1, 0), 0.0);
  q.enqueue(data(1, 1), 0.0);
  EXPECT_TRUE(q.enqueue(data(2, 0), 1.0));    // displaces flow 1's tail
  EXPECT_FALSE(q.enqueue(data(2, 1), 1.002));  // flow 2 is now longest
  const std::vector<TraceRecord> drops =
      of_type(sink, TraceEventType::kQueueDrop);
  ASSERT_EQ(drops.size(), 2u);
  EXPECT_EQ(drops[0].flow, 1);
  EXPECT_EQ(drops[0].detail, kTraceDropDisplaced);
  const std::vector<DropCluster> c = sink.drop_clusters(site, 0.01);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].flows, 2);
  EXPECT_EQ(c[0].drops, 2u);
}

// A ring that overwrote records clusters the drops it still holds.
TEST(TraceSink, DropClustersOfAWrappedRingStartAtTheOldestHeldDrop) {
  TraceSink sink(/*capacity=*/3);
  const std::uint8_t q = sink.register_site("queue:gateway");
  for (int f = 1; f <= 5; ++f) sink.emit(drop(q, f, 1.0 + 0.001 * f));
  ASSERT_EQ(sink.dropped(), 2u);
  const std::vector<DropCluster> c = sink.drop_clusters(q, 0.01);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].first, 1.003);
  EXPECT_EQ(c[0].flows, 3);
  EXPECT_EQ(c[0].drops, 3u);
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

// Site and state names are escaped once per export, not per record: a
// name holding a quote, a backslash or a control character must still
// come out escaped wherever it lands, in the JSONL site and state
// fields and in Perfetto's thread name, qlen counter and state instant.
TEST(TraceExport, NamesAreEscapedInBothExports) {
  TraceSink sink;
  TraceRecord enqueue = record(TraceEventType::kQueueEnqueue, 0.5, 3.0);
  enqueue.site = sink.register_site("q\"a\\b\tc");
  enqueue.flow = 0;
  sink.emit(enqueue);
  TraceRecord state = record(TraceEventType::kCcStateChange, 0.75, 2.0);
  state.flow = 0;
  state.detail = sink.intern_state("fast\"rec");
  sink.emit(state);

  std::ostringstream jsonl, perfetto;
  ASSERT_TRUE(sink.write_jsonl(jsonl));
  ASSERT_TRUE(sink.write_chrome_trace(perfetto));
  EXPECT_EQ(jsonl.str(),
            "{\"t\":0.5,\"type\":\"queue_enqueue\","
            "\"site\":\"q\\\"a\\\\b c\",\"flow\":0,\"seq\":-1,"
            "\"value\":3,\"aux\":0,\"detail\":0}\n"
            "{\"t\":0.75,\"type\":\"cc_state_change\",\"site\":\"unknown\","
            "\"flow\":0,\"seq\":-1,\"value\":2,\"aux\":0,\"detail\":0,"
            "\"state\":\"fast\\\"rec\"}\n");
  EXPECT_EQ(perfetto.str(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
            "\"args\":{\"name\":\"network\"}},\n"
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
            "\"args\":{\"name\":\"unknown\"}},\n"
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
            "\"args\":{\"name\":\"q\\\"a\\\\b c\"}},\n"
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1000,\"tid\":0,"
            "\"args\":{\"name\":\"flow 0\"}},\n"
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1000,\"tid\":0,"
            "\"args\":{\"name\":\"events\"}},\n"
            "{\"name\":\"qlen q\\\"a\\\\b c\",\"ph\":\"C\",\"ts\":500000,"
            "\"pid\":1,\"tid\":0,\"args\":{\"packets\":3}},\n"
            "{\"name\":\"state: fast\\\"rec\",\"ph\":\"i\",\"ts\":750000,"
            "\"pid\":1000,\"tid\":0,\"s\":\"t\",\"args\":{\"cwnd\":2}}"
            "\n]}\n");
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

// finalize_trace writes the measured queue's drop clusters (10 ms gap)
// as congestion_event records, all but the last one, which no later drop
// closed: the trace holds none before it runs, and the open cluster
// stays readable, unrecorded.
TEST(TraceExperiment, FinalizeTraceRecordsEveryClusterButTheOpenOne) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 40;
  sc.duration = 5.0;
  Simulator sim(sc.seed);
  TopoNet net(sim, make_dumbbell_spec(sc));
  TraceSink sink;
  net.attach_trace(sink);
  net.start_sources();
  sim.run(sc.duration);
  EXPECT_TRUE(of_type(sink, TraceEventType::kCongestionEvent).empty());

  const std::uint8_t q = sink.register_site("queue:measured");
  const std::vector<DropCluster> clusters = sink.drop_clusters(q, 0.01);
  ASSERT_GE(clusters.size(), 2u);
  net.finalize_trace();
  const std::vector<TraceRecord> events =
      of_type(sink, TraceEventType::kCongestionEvent);
  ASSERT_EQ(events.size(), clusters.size() - 1);
  for (std::size_t i = 0; i < events.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(events[i].time, clusters[i].first);
    EXPECT_EQ(events[i].site, q);
    EXPECT_EQ(events[i].flow, -1);
    EXPECT_EQ(events[i].value, static_cast<double>(clusters[i].flows));
    EXPECT_EQ(events[i].aux, clusters[i].last - clusters[i].first);
    EXPECT_EQ(events[i].seq, static_cast<std::int64_t>(clusters[i].drops));
  }
  const std::vector<DropCluster> after = sink.drop_clusters(q, 0.01);
  ASSERT_EQ(after.size(), clusters.size());
  EXPECT_EQ(after.back().first, clusters.back().first);
}

// A traced N=60 Reno/RED run's congestion_event records are the drop
// clusters an independent loop finds in its gateway queue_drop records,
// minus the one still open at the end, at every shard count.
class TraceCongestionEvents : public ::testing::TestWithParam<int> {};

TEST_P(TraceCongestionEvents, AreTheClosedClustersOfTheGatewayDrops) {
  Scenario sc = Scenario::paper_default();
  sc.transport = Transport::kReno;
  sc.gateway = GatewayQueue::kRed;
  sc.num_clients = 60;
  sc.duration = 20.0;
  TraceSink sink;
  ExperimentOptions opts;
  opts.trace = &sink;
  opts.lp_shards = GetParam();
  ASSERT_EQ(run_experiment(sc, opts).lp_shards, GetParam());
  ASSERT_EQ(sink.dropped(), 0u);

  const std::uint8_t gateway = sink.register_site("queue:gateway");
  struct Cluster {
    Time first = 0.0;
    Time last = 0.0;
    std::set<std::int32_t> flows;
    std::int64_t drops = 0;
  };
  std::vector<Cluster> want;
  std::vector<TraceRecord> got;
  for (const TraceRecord& r : sink.ordered()) {
    if (r.type == TraceEventType::kCongestionEvent) got.push_back(r);
    if (r.type != TraceEventType::kQueueDrop || r.site != gateway ||
        (r.detail & kTraceDetailAck) != 0) {
      continue;
    }
    if (want.empty() || r.time - want.back().last > 0.01) {
      want.push_back({r.time, r.time, {}, 0});
    }
    want.back().last = r.time;
    want.back().flows.insert(r.flow);
    ++want.back().drops;
  }
  // Seed 1: 143 clusters, the last still open when the run ends.
  ASSERT_EQ(want.size(), 143u);
  want.pop_back();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(got[i].site, gateway);
    EXPECT_EQ(got[i].time, want[i].first);
    EXPECT_EQ(got[i].value, static_cast<double>(want[i].flows.size()));
    EXPECT_EQ(got[i].aux, want[i].last - want[i].first);
    EXPECT_EQ(got[i].seq, want[i].drops);
  }
}

INSTANTIATE_TEST_SUITE_P(Lp, TraceCongestionEvents,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace burst
