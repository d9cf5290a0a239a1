// Traffic-generator tests: Poisson statistics, Pareto heavy tails, bulk
// semantics.
#include <gtest/gtest.h>

#include <memory>

#include "src/app/bulk_source.hpp"
#include "src/app/pareto_on_off_source.hpp"
#include "src/app/poisson_source.hpp"
#include "src/net/drop_tail_queue.hpp"
#include "src/stats/binned_counter.hpp"
#include "src/transport/udp.hpp"

namespace burst {
namespace {

// A minimal agent that records app_send times.
struct RecordingAgent : Agent {
  std::vector<Time> sends;
  RecordingAgent(Simulator& sim, Node& node)
      : Agent(sim, node, /*flow=*/0, /*peer=*/0) {}
  void app_send(int packets) override {
    for (int i = 0; i < packets; ++i) sends.push_back(sim_.now());
  }
  void handle(const Packet&) override {}
};

struct SourceHarness {
  Simulator sim{1};
  Node node{0};
  RecordingAgent agent{sim, node};
};

TEST(PoissonSource, MeanRateMatches) {
  SourceHarness h;
  PoissonSource src(h.sim, h.agent, 0.01, h.sim.rng().fork());
  src.start();
  h.sim.run(100.0);
  // 100 pkt/s over 100 s -> ~10000, sigma = 100.
  EXPECT_NEAR(static_cast<double>(src.generated()), 10000.0, 400.0);
  EXPECT_EQ(src.generated(), h.agent.sends.size());
}

TEST(PoissonSource, InterarrivalsAreExponential) {
  SourceHarness h;
  PoissonSource src(h.sim, h.agent, 0.05, h.sim.rng().fork());
  src.start();
  h.sim.run(500.0);
  ASSERT_GT(h.agent.sends.size(), 1000u);
  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t i = 1; i < h.agent.sends.size(); ++i) {
    const double d = h.agent.sends[i] - h.agent.sends[i - 1];
    sum += d;
    sum_sq += d * d;
  }
  const auto n = static_cast<double>(h.agent.sends.size() - 1);
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.05, 0.005);
  // Exponential: cov of interarrivals = 1.
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.1);
}

TEST(PoissonSource, StopHalts) {
  SourceHarness h;
  PoissonSource src(h.sim, h.agent, 0.01, h.sim.rng().fork());
  src.start();
  h.sim.run(1.0);
  src.stop();
  const auto n = src.generated();
  h.sim.run(10.0);
  EXPECT_EQ(src.generated(), n);
}

TEST(PoissonSource, AggregateOfManySourcesSmooths) {
  // The Central Limit property the paper leans on: c.o.v. of per-window
  // counts falls as 1/sqrt(N) when N independent sources are aggregated.
  auto run_agg = [](int n_sources) {
    Simulator sim(7);
    Node node(0);
    RecordingAgent agent(sim, node);
    std::vector<std::unique_ptr<PoissonSource>> sources;
    for (int i = 0; i < n_sources; ++i) {
      sources.push_back(std::make_unique<PoissonSource>(sim, agent, 0.01,
                                                        sim.rng().fork()));
      sources.back()->start();
    }
    sim.run(50.0);
    BinnedCounter bins(0.08);
    for (Time t : agent.sends) bins.record(t);
    return bins.stats_until(50.0).cov();
  };
  const double cov4 = run_agg(4);
  const double cov64 = run_agg(64);
  EXPECT_NEAR(cov4 / cov64, 4.0, 1.2);  // sqrt(64/4) = 4
}

TEST(ParetoOnOffSource, GeneratesBurstsAndIdles) {
  SourceHarness h;
  ParetoOnOffConfig cfg;
  cfg.on_rate_pps = 100.0;
  cfg.mean_on = 0.2;
  cfg.mean_off = 0.2;
  ParetoOnOffSource src(h.sim, h.agent, cfg, h.sim.rng().fork());
  src.start();
  h.sim.run(200.0);
  // ~half the time on at 100 pps -> ~10000 packets, heavy-tailed spread.
  EXPECT_GT(src.generated(), 3000u);
  EXPECT_LT(src.generated(), 18000u);
  // Idle gaps longer than 10 ticks must exist (off periods).
  int long_gaps = 0;
  for (std::size_t i = 1; i < h.agent.sends.size(); ++i) {
    if (h.agent.sends[i] - h.agent.sends[i - 1] > 0.1) ++long_gaps;
  }
  EXPECT_GT(long_gaps, 10);
}

TEST(ParetoOnOffSource, BurstierThanPoissonAtSameRate) {
  // Compare c.o.v. of binned counts at matched average rate.
  SourceHarness hp;
  PoissonSource pois(hp.sim, hp.agent, 0.02, hp.sim.rng().fork());
  pois.start();
  hp.sim.run(200.0);
  BinnedCounter pb(0.5);
  for (Time t : hp.agent.sends) pb.record(t);

  SourceHarness ha;
  ParetoOnOffConfig cfg;  // mean rate = 20 pps * duty 0.5 = 10pps... scale:
  cfg.on_rate_pps = 100.0;
  cfg.mean_on = 0.5;
  cfg.mean_off = 0.5;
  ParetoOnOffSource par(ha.sim, ha.agent, cfg, ha.sim.rng().fork());
  par.start();
  ha.sim.run(200.0);
  BinnedCounter ab(0.5);
  for (Time t : ha.agent.sends) ab.record(t);

  EXPECT_GT(ab.stats_until(200.0).cov(), 1.5 * pb.stats_until(200.0).cov());
}

TEST(ParetoOnOffSource, OnDurationMeanMatchesConfig) {
  // The OFF transition fires at the sampled ON end *exactly*; the old
  // code waited for the next packet tick, stretching every burst by up
  // to 1/on_rate_pps (here 50 ms — a +10% bias on a 0.5 s mean that this
  // tolerance would catch).
  SourceHarness h;
  ParetoOnOffConfig cfg;
  cfg.shape = 2.5;  // finite variance so the sample mean converges fast
  cfg.mean_on = 0.5;
  cfg.mean_off = 0.1;
  cfg.on_rate_pps = 20.0;
  ParetoOnOffSource src(h.sim, h.agent, cfg, h.sim.rng().fork());
  src.start();
  h.sim.run(3000.0);
  ASSERT_GT(src.completed_on_periods(), 2000u);
  EXPECT_NEAR(src.mean_on_duration(), cfg.mean_on, 0.03);
}

TEST(ParetoOnOffSource, StopNeverCancelsRetiredHandles) {
  // Trampolines clear next_event_ as they fire, so stop() — at any
  // instant, ON or OFF — only ever cancels a live event. A cancel
  // against a retired generation would bump the scheduler's
  // stale-cancel counter.
  SourceHarness h;
  ParetoOnOffConfig cfg;
  cfg.mean_on = 0.05;
  cfg.mean_off = 0.05;
  cfg.on_rate_pps = 200.0;
  ParetoOnOffSource src(h.sim, h.agent, cfg, h.sim.rng().fork());
  for (int i = 0; i < 50; ++i) {
    src.start();
    h.sim.run(h.sim.now() + 0.037 * (i + 1));
    src.stop();
    h.sim.run(h.sim.now() + 0.01);
  }
  EXPECT_EQ(h.sim.scheduler().stale_cancels(), 0u);
}

TEST(SourceHygiene, StopAfterDrainIsNotStale) {
  // Every source type: run to completion (event fired, nothing pending),
  // then stop(). With the fired handle cleared in the trampoline, none
  // of these stops touches the scheduler at all.
  SourceHarness h;
  PoissonSource pois(h.sim, h.agent, 0.01, h.sim.rng().fork());
  ParetoOnOffConfig cfg;
  ParetoOnOffSource par(h.sim, h.agent, cfg, h.sim.rng().fork());
  pois.start();
  par.start();
  h.sim.run(5.0);
  pois.stop();
  par.stop();
  h.sim.run(10.0);
  pois.stop();  // double-stop: handle already cleared, still not stale
  par.stop();
  EXPECT_EQ(h.sim.scheduler().stale_cancels(), 0u);
}

TEST(BulkSource, SubmitsAllAtOnce) {
  SourceHarness h;
  BulkSource src(h.sim, h.agent, 500);
  src.start();
  EXPECT_EQ(src.generated(), 500u);
  EXPECT_EQ(h.agent.sends.size(), 500u);
  EXPECT_DOUBLE_EQ(h.agent.sends.back(), 0.0);
}

TEST(BulkSource, GreedyIsEffectivelyUnbounded) {
  SourceHarness h;
  BulkSource src(h.sim, h.agent, 0);
  src.start();
  EXPECT_GT(src.generated(), 1000000u);
}

}  // namespace
}  // namespace burst
