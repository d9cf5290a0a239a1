#include "src/topo/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

namespace burst {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// A fast dumbbell: 2 s simulated, short warmup, tiny client counts.
constexpr const char* kMiniTopo = R"(set clients 3
set duration 2
set warmup 0.5
node client count $clients
node gw
node server
link gw server rate $bottleneck_bw delay $bottleneck_delay queue droptail
link server gw rate $bottleneck_bw delay $bottleneck_delay
link client gw rate $client_bw delay $client_delay
link gw client rate $client_bw delay $client_delay
flow client server
measure gw server
)";

// Writes the mini topology + a two-axis campaign over it; returns the
// parsed campaign spec.
TopoCampaignSpec mini_campaign(const std::string& dir) {
  {
    std::ofstream t(dir + "/mini.topo");
    t << kMiniTopo;
  }
  {
    std::ofstream c(dir + "/mini.camp");
    c << "campaign mini\n"
         "scenario mini.topo\n"
         "metric delivered\n"
         "sweep clients 2 3\n"
         "sweep payload_bytes 500 1000\n";
  }
  TopoCampaignSpec spec;
  TopoError err;
  EXPECT_TRUE(load_camp_file(dir + "/mini.camp", &spec, &err))
      << err.render("mini.camp");
  return spec;
}

TEST(TopoCampaign, ParsesTheCampFormat) {
  const std::string dir = fresh_dir("camp_parse");
  const TopoCampaignSpec spec = mini_campaign(dir);
  EXPECT_EQ(spec.name, "mini");
  EXPECT_EQ(spec.metric, "delivered");
  ASSERT_EQ(spec.scenario_files.size(), 1u);
  EXPECT_EQ(spec.num_points(), 4u);  // 1 file x 2 clients x 2 payloads

  TopoCampaignSpec bad;
  TopoError err;
  EXPECT_FALSE(parse_camp("scenario a.topo\nmetric bogus\n", "x", dir, &bad,
                          &err));
  EXPECT_EQ(err.line, 2);
  EXPECT_NE(err.message.find("bogus"), std::string::npos);
  // Every result field is a metric, Fig 13's denominator included.
  TopoCampaignSpec dupacks;
  EXPECT_TRUE(parse_camp("scenario a.topo\nmetric dupacks\n", "x", dir,
                         &dupacks, &err))
      << err.message;
  EXPECT_EQ(dupacks.metric, "dupacks");
  EXPECT_FALSE(parse_camp("sweep clients 1\n", "x", dir, &bad, &err));
  EXPECT_NE(err.message.find("no scenario"), std::string::npos);
  EXPECT_FALSE(parse_camp("frobnicate\n", "x", dir, &bad, &err));
  EXPECT_EQ(err.line, 1);
}

TEST(TopoCampaign, CrlfTextParsesLikeLf) {
  // .camp files share the .topo tokenizer, so a file saved with CRLF line
  // ends reads exactly like its LF copy.
  const std::string lf =
      "# comment\n"
      "campaign mini\n"
      "scenario mini.topo\n"
      "metric cov\n"
      "set queue red  # trailing comment\n"
      "sweep clients 2 3\n";
  std::string crlf;
  for (const char c : lf) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  TopoCampaignSpec a, b;
  TopoError err;
  ASSERT_TRUE(parse_camp(lf, "x", "d", &a, &err)) << err.message;
  ASSERT_TRUE(parse_camp(crlf, "x", "d", &b, &err)) << err.message;
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.metric, b.metric);
  EXPECT_EQ(a.scenario_files, b.scenario_files);
  EXPECT_EQ(a.sets, b.sets);
  ASSERT_EQ(a.sweeps.size(), b.sweeps.size());
  EXPECT_EQ(a.sweeps[0].field, b.sweeps[0].field);
  EXPECT_EQ(a.sweeps[0].values, b.sweeps[0].values);
  EXPECT_EQ(b.sweeps[0].values, (std::vector<std::string>{"2", "3"}));
}

TEST(TopoCampaign, ColdRunThenFullyCachedRerun) {
  const std::string dir = fresh_dir("camp_cold_warm");
  const TopoCampaignSpec spec = mini_campaign(dir);
  CampaignOptions opts;
  opts.cache_dir = dir + "/cache";
  TopoError err;

  const auto cold = run_topo_campaign(spec, opts, &err);
  ASSERT_TRUE(cold.has_value()) << err.message;
  EXPECT_EQ(cold->stats.planned, 4u);
  EXPECT_EQ(cold->stats.unique, 4u);
  EXPECT_EQ(cold->stats.simulated, 4u);
  EXPECT_EQ(cold->stats.cache_hits, 0u);

  const auto warm = run_topo_campaign(spec, opts, &err);
  ASSERT_TRUE(warm.has_value()) << err.message;
  EXPECT_EQ(warm->stats.cache_hits, 4u);
  EXPECT_EQ(warm->stats.simulated, 0u);
  ASSERT_EQ(warm->points.size(), cold->points.size());
  for (std::size_t i = 0; i < warm->points.size(); ++i) {
    EXPECT_EQ(warm->points[i].key, cold->points[i].key);
    EXPECT_EQ(warm->points[i].seed, cold->points[i].seed);
    // The cache round-trips bit-identically.
    EXPECT_EQ(warm->points[i].result.delivered,
              cold->points[i].result.delivered);
    EXPECT_EQ(warm->points[i].result.cov, cold->points[i].result.cov);
  }
}

TEST(TopoCampaign, TwoConcurrentWorkersSimulateEachPointOnce) {
  const std::string dir = fresh_dir("camp_two_workers");
  const TopoCampaignSpec spec = mini_campaign(dir);
  CampaignOptions opts;
  opts.cache_dir = dir + "/cache";
  opts.threads = 1;
  TopoError errA, errB;
  std::optional<TopoCampaignOutput> outA, outB;
  // Each worker is a full run_topo_campaign with its own store handle on
  // the shared cache — the in-process twin of two burstcamp processes.
  std::thread a([&] { outA = run_topo_campaign(spec, opts, &errA); });
  std::thread b([&] { outB = run_topo_campaign(spec, opts, &errB); });
  a.join();
  b.join();
  ASSERT_TRUE(outA.has_value()) << errA.message;
  ASSERT_TRUE(outB.has_value()) << errB.message;
  // The claim protocol's core guarantee: across both workers every unique
  // point was simulated exactly once, however the race interleaved.
  EXPECT_EQ(outA->stats.simulated + outB->stats.simulated, 4u);
  // And both workers ended with the full, identical result set.
  ASSERT_EQ(outA->points.size(), 4u);
  ASSERT_EQ(outB->points.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(outA->points[i].key, outB->points[i].key);
    EXPECT_EQ(outA->points[i].result.delivered,
              outB->points[i].result.delivered);
    EXPECT_EQ(outA->points[i].result.cov, outB->points[i].result.cov);
  }
}

TEST(TopoCampaign, ResumesPastADeadWorkersClaim) {
  const std::string dir = fresh_dir("camp_resume");
  const TopoCampaignSpec spec = mini_campaign(dir);
  CampaignOptions opts;
  opts.cache_dir = dir + "/cache";
  TopoError err;
  // Plant the wreckage of a worker killed mid-simulation: a claim file
  // nobody holds a lock on (here in the pid format older builds wrote).
  {
    const auto probe = run_topo_campaign(spec, {}, &err);  // no cache: keys
    ASSERT_TRUE(probe.has_value());
    fs::create_directories(dir + "/cache/claims");
    std::ofstream claim(dir + "/cache/claims/" +
                        probe->points[0].key.hex() + ".claim");
    claim << "pid 99999999\n";  // beyond pid_max: guaranteed dead
  }
  const auto resumed = run_topo_campaign(spec, opts, &err);
  ASSERT_TRUE(resumed.has_value()) << err.message;
  // The unlocked claim was taken at once, not waited on: all four points
  // ran, and publishing removed every claim file.
  EXPECT_EQ(resumed->stats.simulated, 4u);
  EXPECT_TRUE(fs::is_empty(dir + "/cache/claims"));
}

TEST(TopoCampaign, CsvCarriesTheScenarioColumnPerRow) {
  const std::string dir = fresh_dir("camp_csv");
  TopoCampaignSpec spec = mini_campaign(dir);
  // Second topology so the CSV mixes rows from two scenario files.
  {
    std::ofstream t(dir + "/mini2.topo");
    t << kMiniTopo;
  }
  spec.scenario_files.push_back(dir + "/mini2.topo");
  spec.sweeps.pop_back();  // just the clients axis: 2 files x 2 = 4 points
  CampaignOptions opts;
  opts.artifact_dir = dir + "/out";
  TopoError err;
  const auto out = run_topo_campaign(spec, opts, &err);
  ASSERT_TRUE(out.has_value()) << err.message;
  ASSERT_FALSE(out->csv_path.empty());

  std::ifstream csv(out->csv_path);
  std::string header;
  ASSERT_TRUE(std::getline(csv, header));
  EXPECT_EQ(header, "scenario,label,key,seed,clients,clients,delivered");
  int mini = 0, mini2 = 0;
  for (std::string line; std::getline(csv, line);) {
    if (line.rfind("mini,", 0) == 0) ++mini;
    if (line.rfind("mini2,", 0) == 0) ++mini2;
  }
  EXPECT_EQ(mini, 2);
  EXPECT_EQ(mini2, 2);
  // Same graph, but seeds are derived per (scenario, label), so the two
  // files' points stay distinct simulations.
  EXPECT_EQ(out->stats.planned, 4u);
  EXPECT_EQ(out->stats.unique, 4u);
}

// The metric column of a `.camp` CSV, one cell per point (the last field
// of every data row), plus the key column.
void read_csv_columns(const std::string& path, std::vector<std::string>* keys,
                      std::vector<std::string>* metric) {
  std::ifstream csv(path);
  std::string line;
  std::getline(csv, line);  // header: scenario,label,key,...
  while (std::getline(csv, line)) {
    std::vector<std::string> cells;
    std::stringstream row(line);
    for (std::string cell; std::getline(row, cell, ',');) {
      cells.push_back(cell);
    }
    ASSERT_GE(cells.size(), 4u) << line;
    keys->push_back(cells[2]);
    metric->push_back(cells.back());
  }
}

TEST(TopoCampaign, LpShardsSaltTheKeysButNotTheMetricColumn) {
  // A .camp campaign honors lp_shards like the figure campaign: the keys
  // are salted (lp2 results never share store entries with lp1 ones) and
  // the conservative engine reproduces the sequential metric bit for bit.
  const std::string dir = fresh_dir("camp_lp2");
  const TopoCampaignSpec spec = mini_campaign(dir);
  CampaignOptions lp1;
  lp1.artifact_dir = dir + "/lp1";
  CampaignOptions lp2 = lp1;
  lp2.artifact_dir = dir + "/lp2";
  lp2.lp_shards = 2;
  TopoError err;
  const auto a = run_topo_campaign(spec, lp1, &err);
  ASSERT_TRUE(a.has_value()) << err.message;
  const auto b = run_topo_campaign(spec, lp2, &err);
  ASSERT_TRUE(b.has_value()) << err.message;
  ASSERT_EQ(b->points.size(), 4u);
  for (const TopoCampaignPoint& pt : b->points) {
    EXPECT_EQ(pt.result.lp_shards, 2) << pt.label;
  }

  std::vector<std::string> keys1, metric1, keys2, metric2;
  read_csv_columns(a->csv_path, &keys1, &metric1);
  read_csv_columns(b->csv_path, &keys2, &metric2);
  ASSERT_EQ(keys1.size(), 4u);
  ASSERT_EQ(keys2.size(), 4u);
  for (std::size_t i = 0; i < keys1.size(); ++i) {
    EXPECT_NE(keys1[i], keys2[i]) << "row " << i;
  }
  EXPECT_EQ(metric1, metric2);
}

TEST(TopoCampaign, ProfileFillsThePhaseTotals) {
  // A profiled .camp run reports the per-phase split like the figure
  // campaign does, and profiling changes neither keys nor results.
  const std::string dir = fresh_dir("camp_profile");
  const TopoCampaignSpec spec = mini_campaign(dir);
  std::ostringstream profiled_log, plain_log;
  CampaignOptions profiled;
  profiled.profile = true;
  profiled.log = &profiled_log;
  CampaignOptions plain;
  plain.log = &plain_log;
  TopoError err;
  const auto a = run_topo_campaign(spec, profiled, &err);
  ASSERT_TRUE(a.has_value()) << err.message;
  const auto b = run_topo_campaign(spec, plain, &err);
  ASSERT_TRUE(b.has_value()) << err.message;

  double profiled_s = 0.0;
  for (const double s : a->stats.phase_seconds) profiled_s += s;
  EXPECT_GT(profiled_s, 0.0);
  EXPECT_NE(profiled_log.str().find("campaign: profile"), std::string::npos);
  for (const double s : b->stats.phase_seconds) EXPECT_EQ(s, 0.0);
  EXPECT_EQ(plain_log.str().find("campaign: profile"), std::string::npos);

  ASSERT_EQ(a->points.size(), b->points.size());
  for (std::size_t i = 0; i < a->points.size(); ++i) {
    EXPECT_EQ(a->points[i].key, b->points[i].key) << a->points[i].label;
    EXPECT_EQ(a->points[i].result.delivered, b->points[i].result.delivered)
        << a->points[i].label;
    EXPECT_EQ(a->points[i].result.sim_events, b->points[i].result.sim_events)
        << a->points[i].label;
  }
}

TEST(TopoCampaign, SeedsAreValueKeyedNotOrderKeyed) {
  const std::string dir = fresh_dir("camp_seeds");
  TopoCampaignSpec spec = mini_campaign(dir);
  TopoCampaignSpec reversed = spec;
  std::reverse(reversed.sweeps[0].values.begin(),
               reversed.sweeps[0].values.end());
  TopoError err;
  const auto a = run_topo_campaign(spec, {}, &err);
  const auto b = run_topo_campaign(reversed, {}, &err);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  for (const TopoCampaignPoint& pa : a->points) {
    bool found = false;
    for (const TopoCampaignPoint& pb : b->points) {
      if (pb.label == pa.label) {
        found = true;
        EXPECT_EQ(pb.seed, pa.seed);
        EXPECT_EQ(pb.key, pa.key);
      }
    }
    EXPECT_TRUE(found) << pa.label;
  }
}

}  // namespace
}  // namespace burst
