#include "src/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "src/core/experiment.hpp"
#include "src/run/result_store.hpp"

namespace burst {
namespace {

TEST(Histogram, BinsOnInclusiveUpperBoundsWithOverflow) {
  Histogram h({1.0, 2.0, 4.0});
  h.add(0.5);
  h.add(1.0);  // boundary: counts in the <= 1.0 bucket
  h.add(1.5);
  h.add(4.0);
  h.add(5.0);  // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 12.0);
  ASSERT_EQ(h.buckets().size(), 4u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);
}

TEST(MetricsRegistry, SnapshotIsSortedByNameAndFindable) {
  MetricsRegistry reg;
  reg.add_counter("zebra.count", 3);
  reg.add_gauge("alpha.level", 0.5);
  Histogram& h = reg.histogram("mid.hist", {1.0, 2.0});
  h.add(1.5);

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.points.size(), 3u);
  EXPECT_EQ(snap.points[0].name, "alpha.level");
  EXPECT_EQ(snap.points[1].name, "mid.hist");
  EXPECT_EQ(snap.points[2].name, "zebra.count");

  const MetricPoint* c = snap.find("zebra.count");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind, MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(c->value, 3.0);

  const MetricPoint* hist = snap.find("mid.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->kind, MetricKind::kHistogram);
  EXPECT_DOUBLE_EQ(hist->value, 1.0);  // sample count
  EXPECT_DOUBLE_EQ(hist->sum, 1.5);
  ASSERT_EQ(hist->buckets.size(), 3u);
  EXPECT_EQ(hist->buckets[1], 1u);

  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(MetricsRegistry, HistogramRelookupReturnsSameInstance) {
  MetricsRegistry reg;
  Histogram& a = reg.histogram("q.len", {1.0, 2.0});
  Histogram& b = reg.histogram("q.len", {1.0, 2.0});
  EXPECT_EQ(&a, &b);
  a.add(0.5);
  EXPECT_EQ(b.count(), 1u);
}

// The snapshot a run produces is a pure function of the scenario: two
// identical runs yield equal (operator==) snapshots, and every headline
// counter equals the metric it mirrors, sequentially and on 2 LPs. The
// N=15 run has losses, timeouts and duplicate ACKs, so no pair is 0 = 0.
TEST(MetricsExperiment, SnapshotIsDeterministicAndConsistent) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 15;
  sc.duration = 2.0;

  for (const int lp : {1, 2}) {
    SCOPED_TRACE("lp_shards " + std::to_string(lp));
    ExperimentOptions opts;
    opts.lp_shards = lp;
    const ExperimentResult a = run_experiment(sc, opts);
    const ExperimentResult b = run_experiment(sc, opts);
    EXPECT_EQ(a.lp_shards, lp);
    EXPECT_FALSE(a.metrics.points.empty());
    EXPECT_EQ(a.metrics, b.metrics);
    EXPECT_GT(a.gw_drops, 0u);
    EXPECT_GT(a.timeouts, 0u);
    EXPECT_GT(a.dupacks, 0u);

    const std::pair<const char*, std::uint64_t> twins[] = {
        {"queue.gateway.arrivals", a.gw_arrivals},
        {"queue.gateway.drops", a.gw_drops},
        {"tcp.timeouts", a.timeouts},
        {"tcp.fast_retransmits", a.fast_retransmits},
        {"tcp.dupacks", a.dupacks},
        {"tcp.retransmits", a.retransmits},
        {"tcp.data_pkts_sent", a.data_pkts_sent},
        {"sched.events", a.sim_events},
        {"sched.peak_pending", a.peak_pending}};
    for (const auto& [name, value] : twins) {
      const MetricPoint* m = a.metrics.find(name);
      ASSERT_NE(m, nullptr) << name;
      EXPECT_EQ(m->kind, MetricKind::kCounter) << name;
      EXPECT_EQ(m->value, static_cast<double>(value)) << name;
    }

    // The PASTA queue-occupancy histogram saw every data arrival the
    // queue counted (its samples are taken from the bottleneck arrival
    // tap).
    const MetricPoint* qlen =
        a.metrics.find("queue.gateway.len_at_arrival");
    ASSERT_NE(qlen, nullptr);
    EXPECT_EQ(qlen->kind, MetricKind::kHistogram);
    EXPECT_GT(qlen->value, 0.0);
  }
}

// Schema v3: the snapshot survives the result store's JSON round trip
// bit for bit (the store keeps values serialized, so re-serialization
// must also be stable).
TEST(MetricsExperiment, SnapshotRoundTripsThroughResultJson) {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 10;
  sc.duration = 2.0;
  const ExperimentResult r = run_experiment(sc);
  ASSERT_FALSE(r.metrics.points.empty());

  const std::string json = result_to_json(r);
  ExperimentResult parsed;
  ASSERT_TRUE(result_from_json(json, &parsed));
  EXPECT_EQ(parsed.metrics, r.metrics);
  EXPECT_EQ(result_to_json(parsed), json);
}

}  // namespace
}  // namespace burst
