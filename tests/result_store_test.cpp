#include "src/run/result_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

namespace burst {
namespace {

namespace fs = std::filesystem;

ExperimentResult sample_result() {
  ExperimentResult r;
  r.cov = 0.3141592653589793;
  r.poisson_cov = 1.0 / 3.0;
  r.mean_per_bin = 309.66666666666663;
  r.app_generated = 16211;
  r.delivered = 8487;
  r.gw_arrivals = 8989;
  r.gw_drops = 234;
  r.loss_pct = 2.6031816664812548;
  r.timeouts = 52;
  r.fast_retransmits = 81;
  r.dupacks = 1234;
  r.retransmits = 140;
  r.data_pkts_sent = 9000;
  r.timeout_dupack_ratio = 52.0 / 1234.0;
  r.fairness = 0.98765432109876543;
  r.routing_errors = 0;
  r.sim_events = 368516;
  r.peak_pending = 73;
  for (double d : {0.081, 0.0912, 0.1203, 0.0805}) r.delay.add(d);
  TraceSeries t("client 3");
  t.record(0.1, 1.0);
  t.record(0.2, 2.0);
  t.record(0.30000000000000004, 4.0);
  r.cwnd_traces.push_back(t);
  return r;
}

void expect_bit_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.cov, b.cov);
  EXPECT_EQ(a.poisson_cov, b.poisson_cov);
  EXPECT_EQ(a.mean_per_bin, b.mean_per_bin);
  EXPECT_EQ(a.app_generated, b.app_generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.gw_arrivals, b.gw_arrivals);
  EXPECT_EQ(a.gw_drops, b.gw_drops);
  EXPECT_EQ(a.loss_pct, b.loss_pct);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.fast_retransmits, b.fast_retransmits);
  EXPECT_EQ(a.dupacks, b.dupacks);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.data_pkts_sent, b.data_pkts_sent);
  EXPECT_EQ(a.timeout_dupack_ratio, b.timeout_dupack_ratio);
  EXPECT_EQ(a.fairness, b.fairness);
  EXPECT_EQ(a.routing_errors, b.routing_errors);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.peak_pending, b.peak_pending);
  EXPECT_EQ(a.delay.count(), b.delay.count());
  EXPECT_EQ(a.delay.mean(), b.delay.mean());
  EXPECT_EQ(a.delay.m2(), b.delay.m2());
  EXPECT_EQ(a.delay.min(), b.delay.min());
  EXPECT_EQ(a.delay.max(), b.delay.max());
  ASSERT_EQ(a.cwnd_traces.size(), b.cwnd_traces.size());
  for (std::size_t i = 0; i < a.cwnd_traces.size(); ++i) {
    EXPECT_EQ(a.cwnd_traces[i].name(), b.cwnd_traces[i].name());
    EXPECT_EQ(a.cwnd_traces[i].points(), b.cwnd_traces[i].points());
  }
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

TEST(ResultJson, RoundTripsBitIdentically) {
  const ExperimentResult r = sample_result();
  const std::string json = result_to_json(r);
  ExperimentResult back;
  ASSERT_TRUE(result_from_json(json, &back));
  expect_bit_identical(r, back);
  // And re-serialization is a fixed point.
  EXPECT_EQ(result_to_json(back), json);
}

// A result that reaches every branch of the writer: all 18 scalars, a
// delay with samples, a cwnd trace whose name needs escaping, and a
// counter, a gauge and a histogram metric.
ExperimentResult frozen_result() {
  ExperimentResult r = sample_result();
  r.routing_errors = 3;
  TraceSeries odd("say \"hi\" \\ \x01 end");
  odd.record(0.0, -0.0);
  odd.record(1e-7, 1e21);
  r.cwnd_traces.push_back(odd);
  MetricsRegistry reg;
  reg.add_counter("tcp.dupacks", 1234);
  reg.add_gauge("parallel.lookahead", 0.02);
  Histogram& h = reg.histogram("queue.gateway.len_at_arrival", {0, 1, 2, 4});
  for (double v : {0.0, 1.0, 3.0, 9.0}) h.add(v);
  r.metrics = reg.snapshot();
  return r;
}

// The exact bytes of frozen_result()'s store line. Stores already on disk
// must keep loading and re-serializing to the same bytes, and the
// round-trip tests alone would pass a formatter change that alters the
// writer and the reader at once.
constexpr const char* kFrozenLine =
    R"({"cov":0.31415926535897931,"poisson_cov":0.33333333333333331,)"
    R"("mean_per_bin":309.66666666666663,"app_generated":16211,)"
    R"("delivered":8487,"gw_arrivals":8989,"gw_drops":234,)"
    R"("loss_pct":2.6031816664812548,"timeouts":52,"fast_retransmits":81,)"
    R"("dupacks":1234,"retransmits":140,"data_pkts_sent":9000,)"
    R"("timeout_dupack_ratio":0.042139384116693678,)"
    R"("fairness":0.98765432109876539,"routing_errors":3,)"
    R"("sim_events":368516,"peak_pending":73,)"
    R"("delay":{"n":4,"mean":0.09325,"m2":0.0010485299999999998,)"
    R"("min":0.080500000000000002,"max":0.1203},)"
    R"("cwnd_traces":[{"name":"client 3","points":[[0.10000000000000001,1],)"
    R"([0.20000000000000001,2],[0.30000000000000004,4]]},)"
    R"({"name":"say \"hi\" \\   end","points":[[0,-0],)"
    R"([9.9999999999999995e-08,1e+21]]}],)"
    R"("metrics":[{"name":"parallel.lookahead","kind":1,"value":0.02,)"
    R"("sum":0,"bounds":[],"buckets":[]},)"
    R"({"name":"queue.gateway.len_at_arrival","kind":2,"value":4,"sum":13,)"
    R"("bounds":[0,1,2,4],"buckets":[1,1,0,1,1]},)"
    R"({"name":"tcp.dupacks","kind":0,"value":1234,"sum":0,"bounds":[],)"
    R"("buckets":[]}]})";

TEST(ResultJson, MatchesTheFrozenStoreLine) {
  EXPECT_EQ(result_to_json(frozen_result()), kFrozenLine);
  ExperimentResult back;
  ASSERT_TRUE(result_from_json(kFrozenLine, &back));
  EXPECT_EQ(result_to_json(back), kFrozenLine);
}

TEST(ResultJson, RejectsEveryTruncation) {
  const std::string json = result_to_json(sample_result());
  ExperimentResult out;
  // Chop the tail off at a spread of positions: none may parse.
  for (std::size_t keep = 0; keep < json.size(); keep += 7) {
    EXPECT_FALSE(result_from_json(json.substr(0, keep), &out))
        << "prefix of length " << keep << " unexpectedly parsed";
  }
  EXPECT_FALSE(result_from_json(json + "x", &out)) << "trailing garbage";
  EXPECT_FALSE(result_from_json("", &out));
  EXPECT_FALSE(result_from_json("not json at all", &out));
}

TEST(ResultStore, PublishGetAndReopen) {
  const std::string dir = fresh_dir("store_roundtrip");
  const ScenarioKey key = scenario_key(Scenario::paper_default());
  const ExperimentResult r = sample_result();
  {
    ResultStore store(dir);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_FALSE(store.get(key).has_value());
    store.publish(key, r);
    ASSERT_TRUE(store.get(key).has_value());
    // The entry landed in the segment its key hashes to.
    EXPECT_TRUE(fs::exists(store.segment_path(key)));
  }
  ResultStore reopened(dir);
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_EQ(reopened.skipped_entries(), 0u);
  const auto got = reopened.get(key);
  ASSERT_TRUE(got.has_value());
  expect_bit_identical(r, *got);
}

TEST(ResultStore, SkipsCorruptAndTruncatedLines) {
  const std::string dir = fresh_dir("store_corrupt");
  const ScenarioKey key = scenario_key(Scenario::paper_default());
  std::string good_line;
  std::string segment;
  {
    ResultStore store(dir);
    store.publish(key, sample_result());
    segment = store.segment_path(key);
    std::ifstream in(segment);
    std::getline(in, good_line);
  }
  // Rewrite the segment: garbage, a truncated copy of the good line, an
  // empty line, then the good line itself.
  {
    std::ofstream out(segment, std::ios::trunc);
    out << "!!! not a json line\n"
        << good_line.substr(0, good_line.size() / 2) << "\n"
        << "\n"
        << good_line << "\n";
  }
  ResultStore store(dir);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.skipped_entries(), 2u);  // blank lines are not entries
  const auto got = store.get(key);
  ASSERT_TRUE(got.has_value());
  expect_bit_identical(sample_result(), *got);
}

TEST(ResultStore, IgnoresOtherSchemaVersions) {
  const std::string dir = fresh_dir("store_schema");
  const ScenarioKey key = scenario_key(Scenario::paper_default());
  std::string good_line;
  std::string segment;
  {
    ResultStore store(dir);
    store.publish(key, sample_result());
    segment = store.segment_path(key);
    std::ifstream in(segment);
    std::getline(in, good_line);
  }
  // Bump the schema number inside the stored line.
  const std::string needle =
      "\"schema\":" + std::to_string(kResultSchemaVersion);
  const std::size_t at = good_line.find(needle);
  ASSERT_NE(at, std::string::npos);
  std::string stale = good_line;
  stale.replace(at, needle.size(),
                "\"schema\":" + std::to_string(kResultSchemaVersion + 1));
  {
    std::ofstream out(segment, std::ios::trunc);
    out << stale << "\n";
  }
  ResultStore store(dir);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.skipped_entries(), 1u);
  EXPECT_FALSE(store.get(key).has_value());  // never serves stale schema
}

TEST(ResultStore, IgnoresAPreShardingResultsFile) {
  // Stores written before sharding kept every entry in results.jsonl. The
  // store reads only its shard segments: such a file is neither loaded
  // nor counted as skipped, and it is left exactly as it was.
  const ScenarioKey key = scenario_key(Scenario::paper_default());
  std::string good_line;
  {
    ResultStore store(fresh_dir("store_legacy_src"));
    store.publish(key, sample_result());
    std::ifstream in(store.segment_path(key));
    std::getline(in, good_line);
  }
  ASSERT_FALSE(good_line.empty());
  const std::string dir = fresh_dir("store_legacy");
  fs::create_directories(dir);
  const std::string legacy = dir + "/results.jsonl";
  {
    std::ofstream out(legacy);
    out << good_line << "\n";
  }
  {
    ResultStore store(dir);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.skipped_entries(), 0u);
    EXPECT_FALSE(store.get(key).has_value());
    store.publish(key, sample_result());
  }
  std::ifstream in(legacy);
  const std::string kept((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(kept, good_line + "\n");
  ResultStore reopened(dir);
  EXPECT_EQ(reopened.size(), 1u);
  const auto got = reopened.get(key);
  ASSERT_TRUE(got.has_value());
  expect_bit_identical(sample_result(), *got);
}

}  // namespace
}  // namespace burst
