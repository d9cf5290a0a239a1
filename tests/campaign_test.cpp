// Campaign determinism and cache robustness: the same campaign must
// produce bit-identical metrics with 1 thread, N threads, and from a
// warm cache; a damaged cache must fall back to re-simulation. The
// engine (run_campaign_points) dedups by key, keeps input order and
// totals only what it simulated; the metric table serves both the
// figure set and `.camp` files.
#include "src/run/campaign.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "src/run/result_store.hpp"
#include "src/transport/flow_arena.hpp"

namespace burst {
namespace {

namespace fs = std::filesystem;

Scenario quick_base() {
  Scenario s = Scenario::paper_default();
  s.duration = 3.0;
  s.warmup = 1.0;
  return s;
}

std::vector<SweepConfig> two_configs() {
  return {{"Reno", [](Scenario& s) { s.transport = Transport::kReno; }},
          {"Vegas", [](Scenario& s) { s.transport = Transport::kVegas; }}};
}

CampaignSweep quick_sweep(const std::string& name) {
  CampaignSweep sw;
  sw.name = name;
  sw.metric_name = "c.o.v.";
  sw.base = quick_base();
  sw.client_counts = {6, 12};
  sw.configs = two_configs();
  sw.metric = [](const ExperimentResult& r) { return r.cov; };
  return sw;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

void expect_identical_series(const std::vector<SweepSeries>& a,
                             const std::vector<SweepSeries>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].points.size(), b[s].points.size());
    EXPECT_EQ(a[s].name, b[s].name);
    for (std::size_t p = 0; p < a[s].points.size(); ++p) {
      const ExperimentResult& ra = a[s].points[p].result;
      const ExperimentResult& rb = b[s].points[p].result;
      EXPECT_EQ(a[s].points[p].num_clients, b[s].points[p].num_clients);
      // Bit-identical, not approximately equal.
      EXPECT_EQ(ra.cov, rb.cov);
      EXPECT_EQ(ra.delivered, rb.delivered);
      EXPECT_EQ(ra.loss_pct, rb.loss_pct);
      EXPECT_EQ(ra.timeouts, rb.timeouts);
      EXPECT_EQ(ra.dupacks, rb.dupacks);
      EXPECT_EQ(ra.fairness, rb.fairness);
      EXPECT_EQ(ra.delay.mean(), rb.delay.mean());
      EXPECT_EQ(ra.delay.count(), rb.delay.count());
    }
  }
}

TEST(Campaign, ThreadCountAndWarmCacheAreBitIdentical) {
  const std::string cache = fresh_dir("campaign_det_cache");
  const std::vector<CampaignSweep> sweeps{quick_sweep("det")};

  CampaignOptions serial;
  serial.threads = 1;

  CampaignOptions parallel;
  parallel.threads = 4;
  parallel.cache_dir = cache;  // cold: populates the store

  CampaignOptions warm;
  warm.threads = 4;
  warm.cache_dir = cache;  // warm: everything from the store

  const auto a = run_campaign(sweeps, serial);
  const auto b = run_campaign(sweeps, parallel);
  const auto c = run_campaign(sweeps, warm);

  EXPECT_EQ(a.stats.simulated, a.stats.unique);
  EXPECT_EQ(b.stats.simulated, b.stats.unique);
  EXPECT_EQ(c.stats.simulated, 0u);
  EXPECT_EQ(c.stats.cache_hits, c.stats.unique);

  expect_identical_series(a.sweeps[0].second, b.sweeps[0].second);
  expect_identical_series(a.sweeps[0].second, c.sweeps[0].second);
}

TEST(Campaign, PointsMatchRunExperimentAtTheirSeed) {
  // Every campaign point is exactly run_experiment of its scenario at
  // campaign_point_seed — the seed the manifest records and the bench
  // figures rely on.
  const CampaignSweep sweep = quick_sweep("match");
  std::vector<SweepSeries> direct;
  for (const SweepConfig& config : sweep.configs) {
    SweepSeries series;
    series.name = config.name;
    for (const int n : sweep.client_counts) {
      Scenario sc = sweep.base;
      sc.num_clients = n;
      config.apply(sc);
      sc.seed = campaign_point_seed(sweep.base, config.name, n);
      series.points.push_back({n, run_experiment(sc)});
    }
    direct.push_back(std::move(series));
  }
  const auto campaign = run_campaign({sweep}, {});
  expect_identical_series(direct, campaign.sweeps[0].second);
}

TEST(Campaign, DeduplicatesAcrossSweeps) {
  // Two figures over the same base/configs/counts (the Fig 3/4/13
  // situation) must share every simulation.
  std::vector<CampaignSweep> sweeps{quick_sweep("figA"), quick_sweep("figB")};
  sweeps[1].metric = [](const ExperimentResult& r) { return r.loss_pct; };
  const auto out = run_campaign(sweeps, {});
  EXPECT_EQ(out.stats.planned, 8u);
  EXPECT_EQ(out.stats.unique, 4u);
  EXPECT_EQ(out.stats.simulated, 4u);
  expect_identical_series(out.sweeps[0].second, out.sweeps[1].second);
}

TEST(Campaign, EmptyCacheDirBypassesTheStore) {
  // burstcamp --no-cache: no cache_dir, so no store is opened or written
  // and the manifest says so.
  const std::string out_dir = fresh_dir("campaign_nocache");
  std::vector<CampaignSweep> sweeps{quick_sweep("nocache")};
  CampaignOptions opts;
  opts.artifact_dir = out_dir;
  const auto out = run_campaign(sweeps, opts);
  EXPECT_EQ(out.stats.cache_hits, 0u);
  EXPECT_EQ(out.stats.simulated, out.stats.unique);
  EXPECT_FALSE(fs::exists(out_dir + "/cache"));
  std::ifstream mf(out_dir + "/manifest.json");
  const std::string manifest((std::istreambuf_iterator<char>(mf)),
                             std::istreambuf_iterator<char>());
  EXPECT_NE(manifest.find("\"cache_dir\": \"\",\n  \"cache_enabled\": false"),
            std::string::npos);
}

TEST(Campaign, CorruptedCacheFallsBackToSimulation) {
  const std::string cache = fresh_dir("campaign_corrupt");
  const std::vector<CampaignSweep> sweeps{quick_sweep("corrupt")};
  CampaignOptions opts;
  opts.cache_dir = cache;
  const auto cold = run_campaign(sweeps, opts);
  EXPECT_EQ(cold.stats.simulated, cold.stats.unique);

  // Truncate every stored line halfway: all entries become unreadable.
  std::size_t truncated = 0;
  for (const auto& entry : fs::directory_iterator(cache)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("shard-", 0) != 0) continue;
    std::vector<std::string> lines;
    {
      std::ifstream in(entry.path());
      for (std::string l; std::getline(in, l);) lines.push_back(l);
    }
    std::ofstream out(entry.path(), std::ios::trunc);
    for (const auto& l : lines) {
      out << l.substr(0, l.size() / 2) << "\n";
      ++truncated;
    }
  }
  ASSERT_GT(truncated, 0u);

  const auto rerun = run_campaign(sweeps, opts);
  EXPECT_EQ(rerun.stats.cache_hits, 0u);
  EXPECT_EQ(rerun.stats.simulated, rerun.stats.unique);
  EXPECT_EQ(rerun.stats.store_skipped, rerun.stats.unique);
  // Re-simulation reproduces the cold numbers exactly (never stale junk).
  expect_identical_series(cold.sweeps[0].second, rerun.sweeps[0].second);

  // And the store healed: a third run is all hits again.
  const auto healed = run_campaign(sweeps, opts);
  EXPECT_EQ(healed.stats.cache_hits, healed.stats.unique);
  EXPECT_EQ(healed.stats.simulated, 0u);
}

TEST(Campaign, WritesArtifacts) {
  const std::string out_dir = fresh_dir("campaign_artifacts");
  std::vector<CampaignSweep> sweeps{quick_sweep("figX")};
  CampaignOptions opts;
  opts.artifact_dir = out_dir;
  const auto out = run_campaign(sweeps, opts);
  EXPECT_GT(out.stats.wall_s, 0.0);
  EXPECT_TRUE(fs::exists(out_dir + "/figX.csv"));
  ASSERT_TRUE(fs::exists(out_dir + "/manifest.json"));

  std::ifstream mf(out_dir + "/manifest.json");
  std::string manifest((std::istreambuf_iterator<char>(mf)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(manifest.find("\"result_schema\": " +
                          std::to_string(kResultSchemaVersion)),
            std::string::npos);
  EXPECT_NE(manifest.find("\"name\": \"figX\""), std::string::npos);
  EXPECT_NE(manifest.find("\"seeds\": ["), std::string::npos);
  EXPECT_NE(manifest.find("\"cache_hits\": 0"), std::string::npos);
  // The recorded seeds are the derived ones, not the base seed.
  EXPECT_NE(
      manifest.find(std::to_string(
          campaign_point_seed(quick_base(), "Reno", 6))),
      std::string::npos);
}

TEST(Campaign, PaperFigureCampaignShape) {
  const auto sweeps = paper_figure_campaign(Scenario::paper_default());
  ASSERT_EQ(sweeps.size(), 4u);
  EXPECT_EQ(sweeps[0].name, "fig02_cov");
  EXPECT_EQ(sweeps[0].configs.size(), 6u);   // includes UDP
  EXPECT_EQ(sweeps[1].configs.size(), 5u);   // no UDP
  EXPECT_EQ(sweeps[1].client_counts, sweeps[3].client_counts);

  // Figs 3/4/13 plan identical scenarios (same configs, counts, seeds),
  // so the campaign collapses them to one simulation each.
  auto point_key = [](const CampaignSweep& sw, std::size_t c, std::size_t p) {
    Scenario sc = sw.base;
    sc.num_clients = sw.client_counts[p];
    sw.configs[c].apply(sc);
    sc.seed = campaign_point_seed(sw.base, sw.configs[c].name,
                                  sw.client_counts[p]);
    return scenario_key(sc);
  };
  for (std::size_t c = 0; c < sweeps[1].configs.size(); ++c) {
    for (std::size_t p = 0; p < sweeps[1].client_counts.size(); ++p) {
      EXPECT_EQ(point_key(sweeps[1], c, p), point_key(sweeps[2], c, p));
      EXPECT_EQ(point_key(sweeps[1], c, p), point_key(sweeps[3], c, p));
    }
  }
}

// A result whose every scalar the metric table can read is distinct, so
// a table entry reading the wrong field cannot pass by coincidence.
ExperimentResult distinct_result() {
  ExperimentResult r;
  r.cov = 0.11;
  r.poisson_cov = 0.12;
  r.mean_per_bin = 13.0;
  r.loss_pct = 1.4;
  r.delivered = 15;
  r.gw_arrivals = 16;
  r.gw_drops = 17;
  r.timeouts = 18;
  r.fast_retransmits = 19;
  r.retransmits = 20;
  r.timeout_dupack_ratio = 0.21;
  r.fairness = 0.22;
  r.delay.add(0.5);
  r.delay.add(1.5);
  return r;
}

TEST(CampaignMetric, ResolvesEveryTableName) {
  const ExperimentResult r = distinct_result();
  const std::vector<std::pair<std::string, double>> table{
      {"cov", 0.11},          {"poisson_cov", 0.12},
      {"mean_per_bin", 13.0}, {"loss_pct", 1.4},
      {"delivered", 15.0},    {"gw_arrivals", 16.0},
      {"gw_drops", 17.0},     {"timeouts", 18.0},
      {"fast_retransmits", 19.0}, {"retransmits", 20.0},
      {"timeout_dupack_ratio", 0.21}, {"fairness", 0.22},
      {"mean_delay", 1.0},    {"max_delay", 1.5}};
  for (const auto& [name, expected] : table) {
    const auto metric = campaign_metric(name);
    ASSERT_NE(metric, nullptr) << name;
    EXPECT_EQ(metric(r), expected) << name;
  }

  // Every result field list entry is a metric, and it reads its own
  // member: numbered 1, 2, ... in list order, no two read alike.
  ExperimentResult numbered;
  double next = 1.0;
  for_each_result_field(numbered, [&next](const ResultField&, auto& member) {
    member = static_cast<std::decay_t<decltype(member)>>(next++);
  });
  std::size_t fields = 0;
  for_each_result_field(
      numbered, [&](const ResultField& f, const auto& member) {
        ++fields;
        const auto metric = campaign_metric(f.name);
        ASSERT_NE(metric, nullptr) << f.name;
        EXPECT_EQ(metric(numbered), static_cast<double>(member)) << f.name;
      });
  EXPECT_EQ(fields, 18u);

  EXPECT_EQ(campaign_metric("nope"), nullptr);
  EXPECT_EQ(campaign_metric(""), nullptr);
  EXPECT_EQ(campaign_metric("COV"), nullptr);  // names are case-sensitive
}

TEST(Campaign, PaperFiguresReadTheSharedMetricTable) {
  // Each figure's CSV column is the `.camp` metric of the same name, so a
  // `.camp` file can reproduce any figure column.
  const auto sweeps = paper_figure_campaign(Scenario::paper_default());
  const ExperimentResult r = distinct_result();
  const char* names[] = {"cov", "delivered", "loss_pct",
                         "timeout_dupack_ratio"};
  ASSERT_EQ(sweeps.size(), std::size(names));
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    ASSERT_NE(sweeps[i].metric, nullptr) << sweeps[i].name;
    EXPECT_EQ(sweeps[i].metric(r), campaign_metric(names[i])(r))
        << sweeps[i].name;
  }
}

TEST(CampaignRunOptions, OnlyTheShardCountReachesTheKey) {
  // Threads, profiling and the cache location do not change what a point
  // computes, so they must not re-key it: an lp1 campaign keys under the
  // plain scenario key every sequential entry point uses. lp>1 salts it.
  const Scenario sc = quick_base();
  CampaignOptions busy;
  busy.threads = 7;
  busy.profile = true;
  busy.cache_dir = "elsewhere";
  EXPECT_EQ(scenario_key(sc, campaign_run_options({})), scenario_key(sc));
  EXPECT_EQ(scenario_key(sc, campaign_run_options(busy)), scenario_key(sc));

  CampaignOptions lp2;
  lp2.lp_shards = 2;
  CampaignOptions lp3;
  lp3.lp_shards = 3;
  EXPECT_EQ(campaign_run_options(lp2).lp_shards, 2);
  const ScenarioKey k2 = scenario_key(sc, campaign_run_options(lp2));
  const ScenarioKey k3 = scenario_key(sc, campaign_run_options(lp3));
  EXPECT_NE(k2, scenario_key(sc));
  EXPECT_NE(k3, scenario_key(sc));
  EXPECT_NE(k2, k3);
}

// ---- The engine: keyed points in, one result per point out. -----------

Scenario point_scenario(int clients, std::uint64_t seed) {
  Scenario sc = quick_base();
  sc.num_clients = clients;
  sc.seed = seed;
  return sc;
}

CampaignPoint dumbbell_point(const Scenario& sc,
                             const CampaignOptions& opts = {}) {
  return {make_dumbbell_spec(sc),
          scenario_key(sc, campaign_run_options(opts))};
}

void expect_same_result(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.cov, b.cov);
  EXPECT_EQ(a.poisson_cov, b.poisson_cov);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.gw_drops, b.gw_drops);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.fairness, b.fairness);
  EXPECT_EQ(a.delay.mean(), b.delay.mean());
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.metrics, b.metrics);
}

TEST(CampaignPoints, EqualKeysRunOnceAndShareOneResult) {
  // Dedup is by key, not by position: a repeated point is simulated once
  // and every copy gets that one run's result.
  const Scenario a = point_scenario(6, 11);
  const Scenario b = point_scenario(9, 12);
  const std::vector<CampaignPoint> points{
      dumbbell_point(a), dumbbell_point(b), dumbbell_point(a)};
  CampaignStats stats;
  const auto results = run_campaign_points(points, {}, &stats);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(stats.planned, 3u);
  EXPECT_EQ(stats.unique, 2u);
  EXPECT_EQ(stats.simulated, 2u);
  EXPECT_EQ(stats.cache_hits, 0u);
  expect_same_result(results[0], results[2]);
  expect_same_result(results[0], run_experiment(a));
  expect_same_result(results[1], run_experiment(b));
}

TEST(CampaignPoints, ResultsFollowInputOrderAtAnyThreadCount) {
  std::vector<CampaignPoint> points;
  for (const int n : {12, 4, 9, 6, 15}) {
    points.push_back(dumbbell_point(point_scenario(n, 100 + n)));
  }
  CampaignOptions one;
  one.threads = 1;
  CampaignOptions four;
  four.threads = 4;
  CampaignStats s1, s4;
  const auto r1 = run_campaign_points(points, one, &s1);
  const auto r4 = run_campaign_points(points, four, &s4);
  ASSERT_EQ(r1.size(), points.size());
  ASSERT_EQ(r4.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Scenario& sc = points[i].spec.scenario;
    EXPECT_EQ(r1[i].scenario.num_clients, sc.num_clients) << "point " << i;
    EXPECT_EQ(r1[i].scenario.seed, sc.seed) << "point " << i;
    expect_same_result(r1[i], r4[i]);
  }
}

TEST(CampaignPoints, CacheHitsCarryThePointScenario) {
  const std::string cache = fresh_dir("campaign_points_hits");
  const std::vector<CampaignPoint> points{
      dumbbell_point(point_scenario(6, 31)),
      dumbbell_point(point_scenario(10, 32))};
  CampaignOptions opts;
  opts.cache_dir = cache;
  CampaignStats cold_stats, warm_stats;
  const auto cold = run_campaign_points(points, opts, &cold_stats);
  const auto warm = run_campaign_points(points, opts, &warm_stats);
  EXPECT_EQ(cold_stats.simulated, 2u);
  EXPECT_EQ(warm_stats.cache_hits, 2u);
  EXPECT_EQ(warm_stats.simulated, 0u);
  ASSERT_EQ(warm.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Scenario& sc = points[i].spec.scenario;
    EXPECT_EQ(warm[i].scenario.num_clients, sc.num_clients);
    EXPECT_EQ(warm[i].scenario.seed, sc.seed);
    EXPECT_EQ(warm[i].scenario.duration, sc.duration);
    expect_same_result(cold[i], warm[i]);
  }
}

TEST(CampaignPoints, PerfTotalsCountOnlySimulatedPoints) {
  const std::string cache = fresh_dir("campaign_points_perf");
  const std::vector<CampaignPoint> points{
      dumbbell_point(point_scenario(6, 41)),
      dumbbell_point(point_scenario(12, 42)),
      dumbbell_point(point_scenario(6, 41))};  // a duplicate: counted once
  CampaignOptions opts;
  opts.cache_dir = cache;
  CampaignStats cold;
  const auto results = run_campaign_points(points, opts, &cold);
  EXPECT_EQ(cold.sim_events, results[0].sim_events + results[1].sim_events);
  EXPECT_EQ(cold.peak_pending_max,
            std::max(results[0].peak_pending, results[1].peak_pending));
  EXPECT_GT(cold.events_per_sec, 0.0);

  // Cache hits carry no fresh run, so a fully cached campaign reports none.
  CampaignStats warm;
  run_campaign_points(points, opts, &warm);
  EXPECT_EQ(warm.cache_hits, 2u);
  EXPECT_EQ(warm.sim_events, 0u);
  EXPECT_EQ(warm.peak_pending_max, 0u);
  EXPECT_EQ(warm.sim_wall_s, 0.0);
  EXPECT_EQ(warm.events_per_sec, 0.0);
}

TEST(CampaignPoints, LpTotalsSumThePerRunLpEvents) {
  CampaignOptions lp2;
  lp2.lp_shards = 2;
  lp2.threads = 1;
  const std::vector<Scenario> scenarios{point_scenario(6, 51),
                                        point_scenario(8, 52)};
  std::vector<CampaignPoint> parallel, sequential;
  for (const Scenario& sc : scenarios) {
    parallel.push_back(dumbbell_point(sc, lp2));
    sequential.push_back(dumbbell_point(sc));
  }
  CampaignStats par, seq;
  const auto results = run_campaign_points(parallel, lp2, &par);
  run_campaign_points(sequential, {}, &seq);

  for (const ExperimentResult& r : results) EXPECT_EQ(r.lp_shards, 2);
  ASSERT_EQ(par.lp_stats.size(), 2u);
  std::uint64_t lp_events = 0;
  for (const LpStats& p : par.lp_stats) lp_events += p.events;
  EXPECT_EQ(lp_events, par.sim_events);
  // The conservative engine executes exactly the sequential event count.
  EXPECT_EQ(par.sim_events, seq.sim_events);
  EXPECT_TRUE(seq.lp_stats.empty());
}

TEST(CampaignPoints, ThrowingPointReleasesItsClaim) {
  // A flow-arena budget far below any dumbbell's makes run_experiment
  // throw once the point is claimed.
  struct BudgetGuard {
    BudgetGuard() { FlowArena::set_default_budget_bytes(64); }
    ~BudgetGuard() { FlowArena::set_default_budget_bytes(0); }
  };
  const std::string cache = fresh_dir("campaign_points_throw");
  const std::vector<CampaignPoint> points{
      dumbbell_point(point_scenario(6, 61))};
  CampaignOptions opts;
  opts.cache_dir = cache;
  CampaignStats stats;
  {
    BudgetGuard tiny;
    EXPECT_THROW(run_campaign_points(points, opts, &stats), std::length_error);
  }
  // The claim file stays, empty, and nobody holds its lock: this live
  // process does not keep the point from the next worker.
  ResultStore next(cache);
  const std::string path = next.claim_path(points[0].key);
  ASSERT_TRUE(fs::exists(path));
  EXPECT_EQ(fs::file_size(path), 0u);
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(::flock(fd, LOCK_EX | LOCK_NB), 0);
  ::close(fd);
  EXPECT_TRUE(next.claim(points[0].key));
  EXPECT_FALSE(next.get(points[0].key).has_value());  // nothing published
}

TEST(CampaignPoints, UncreatableCacheDirRunsUncached) {
  // The cache dir sits under a regular file, so it cannot be created: the
  // campaign says so once and runs every point uncached.
  const std::string dir = fresh_dir("campaign_points_nodir");
  fs::create_directories(dir);
  std::ofstream(dir + "/file") << "not a directory\n";
  const std::vector<CampaignPoint> points{
      dumbbell_point(point_scenario(6, 71)),
      dumbbell_point(point_scenario(9, 72))};
  CampaignOptions opts;
  opts.cache_dir = dir + "/file/cache";
  opts.threads = 2;
  CampaignStats stats;
  ::testing::internal::CaptureStderr();
  const auto results = run_campaign_points(points, opts, &stats);
  const std::string warnings = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(std::count(warnings.begin(), warnings.end(), '\n'), 1)
      << warnings;
  EXPECT_NE(warnings.find("cannot create"), std::string::npos) << warnings;
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.simulated, 2u);
  ASSERT_EQ(results.size(), 2u);
  expect_same_result(results[0], run_experiment(points[0].spec.scenario));
  expect_same_result(results[1], run_experiment(points[1].spec.scenario));
}

TEST(CampaignPoints, EmptyPlanSimulatesNothing) {
  CampaignOptions opts;
  opts.cache_dir = fresh_dir("campaign_points_empty");
  CampaignStats stats;
  const auto results = run_campaign_points({}, opts, &stats);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(stats.planned, 0u);
  EXPECT_EQ(stats.unique, 0u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.simulated, 0u);
  EXPECT_EQ(stats.sim_events, 0u);
  EXPECT_TRUE(stats.lp_stats.empty());
}

}  // namespace
}  // namespace burst
