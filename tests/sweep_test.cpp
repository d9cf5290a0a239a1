#include "src/core/sweep.hpp"

#include <gtest/gtest.h>

#include "src/run/campaign.hpp"

namespace burst {
namespace {

Scenario quick_base() {
  Scenario s = Scenario::paper_default();
  s.duration = 4.0;
  s.warmup = 1.0;
  return s;
}

// One client-count sweep over @p configs, run as a one-sweep campaign.
std::vector<SweepSeries> sweep(const std::vector<int>& client_counts,
                               const std::vector<SweepConfig>& configs) {
  CampaignSweep sw;
  sw.name = "sweep";
  sw.base = quick_base();
  sw.client_counts = client_counts;
  sw.configs = configs;
  return run_campaign({sw}).sweeps.front().second;
}

TEST(Sweep, RangeHelper) {
  EXPECT_EQ(range(1, 5), (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(range(10, 30, 10), (std::vector<int>{10, 20, 30}));
  EXPECT_EQ(range(5, 4), (std::vector<int>{}));
}

TEST(Sweep, PaperProtocolSet) {
  const auto configs = paper_protocol_set();
  ASSERT_EQ(configs.size(), 6u);
  EXPECT_EQ(configs[0].name, "UDP");
  EXPECT_EQ(configs[5].name, "Reno/DelayAck");
  const auto no_udp = paper_protocol_set(false);
  ASSERT_EQ(no_udp.size(), 5u);
  EXPECT_EQ(no_udp[0].name, "Reno");
}

TEST(Sweep, ConfigsApplyCorrectly) {
  const auto configs = paper_protocol_set();
  Scenario s = quick_base();
  configs[2].apply(s);  // Reno/RED
  EXPECT_EQ(s.transport, Transport::kReno);
  EXPECT_EQ(s.gateway, GatewayQueue::kRed);
  Scenario v = quick_base();
  configs[5].apply(v);  // Reno/DelayAck
  EXPECT_TRUE(v.delayed_ack);
}

TEST(Sweep, ProducesAllSeriesAndPoints) {
  const auto series = sweep({5, 15}, paper_protocol_set());
  ASSERT_EQ(series.size(), 6u);
  for (const auto& s : series) {
    ASSERT_EQ(s.points.size(), 2u);
    EXPECT_EQ(s.points[0].num_clients, 5);
    EXPECT_EQ(s.points[1].num_clients, 15);
    EXPECT_GT(s.points[0].result.delivered, 0u);
  }
}

TEST(Sweep, ParallelMatchesConfigOrder) {
  const auto configs = paper_protocol_set();
  const auto series = sweep({8}, configs);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(series[i].name, configs[i].name);
  }
}

TEST(Sweep, DeterministicAcrossRuns) {
  const auto a = sweep({10}, paper_protocol_set(false));
  const auto b = sweep({10}, paper_protocol_set(false));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].points[0].result.delivered,
              b[i].points[0].result.delivered);
    EXPECT_DOUBLE_EQ(a[i].points[0].result.cov, b[i].points[0].result.cov);
  }
}

TEST(Sweep, UdpLossGrowsWithClients) {
  std::vector<SweepConfig> udp_only{
      {"UDP", [](Scenario& s) { s.transport = Transport::kUdp; }}};
  const auto series = sweep({20, 45, 60}, udp_only);
  const auto& pts = series[0].points;
  EXPECT_LT(pts[0].result.loss_pct, 0.5);
  EXPECT_GT(pts[2].result.loss_pct, pts[1].result.loss_pct);
  EXPECT_GT(pts[1].result.loss_pct, 1.0);
}

}  // namespace
}  // namespace burst
