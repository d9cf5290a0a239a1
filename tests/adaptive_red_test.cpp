// Self-configuring RED (the paper's reference [5]): max_p adapts so the
// average queue settles between the thresholds.
#include <gtest/gtest.h>

#include "src/core/experiment.hpp"
#include "src/net/red_queue.hpp"

namespace burst {
namespace {

RedConfig adaptive_config() {
  RedConfig cfg;
  cfg.min_th = 5;
  cfg.max_th = 15;
  cfg.max_p = 0.1;
  cfg.weight = 0.02;
  cfg.capacity = 1000;
  cfg.adaptive = true;
  cfg.adapt_interval = 0.1;
  return cfg;
}

TEST(AdaptiveRed, MaxPDecreasesWhenQueueTooEmpty) {
  RedQueue q(adaptive_config(), Random(1));
  // Light load: queue always ~0, avg < min_th.
  Packet out;
  for (int i = 0; i < 100; ++i) {
    q.enqueue(Packet{.size_bytes = 1040}, i * 0.05);
    q.dequeue(i * 0.05, out);
  }
  EXPECT_LT(q.max_p(), 0.1);
  EXPECT_GE(q.max_p(), adaptive_config().min_max_p);
}

TEST(AdaptiveRed, MaxPIncreasesWhenQueuePinnedHigh) {
  RedConfig cfg = adaptive_config();
  RedQueue q(cfg, Random(1));
  // Keep 30 packets buffered (above max_th=15) while time passes.
  for (int i = 0; i < 30; ++i) q.enqueue(Packet{.size_bytes = 1040}, 0.0);
  for (int i = 0; i < 200; ++i) {
    q.enqueue(Packet{.size_bytes = 1040}, i * 0.05);
    // No dequeue: occupancy stays high (enqueues above max_th are dropped,
    // but avg keeps tracking the standing queue).
  }
  EXPECT_GT(q.max_p(), 0.1);
  EXPECT_LE(q.max_p(), cfg.max_max_p);
}

TEST(AdaptiveRed, StaticRedKeepsMaxP) {
  RedConfig cfg = adaptive_config();
  cfg.adaptive = false;
  RedQueue q(cfg, Random(1));
  Packet out;
  for (int i = 0; i < 100; ++i) {
    q.enqueue(Packet{.size_bytes = 1040}, i * 0.05);
    q.dequeue(i * 0.05, out);
  }
  EXPECT_DOUBLE_EQ(q.max_p(), 0.1);
}

TEST(AdaptiveRed, AdjustmentRespectsInterval) {
  RedConfig cfg = adaptive_config();
  cfg.adapt_interval = 10.0;  // no adjustment inside the test horizon
  RedQueue q(cfg, Random(1));
  Packet out;
  for (int i = 0; i < 100; ++i) {
    q.enqueue(Packet{.size_bytes = 1040}, i * 0.01);
    q.dequeue(i * 0.01, out);
  }
  EXPECT_DOUBLE_EQ(q.max_p(), 0.1);
}

TEST(AdaptiveRed, EndToEndKeepsQueueBetweenThresholds) {
  Scenario sc = Scenario::paper_default();
  sc.transport = Transport::kReno;
  sc.gateway = GatewayQueue::kRed;
  sc.adaptive_red = true;
  sc.num_clients = 45;
  sc.duration = 10.0;
  const auto adaptive = run_experiment(sc);
  Scenario st = sc;
  st.adaptive_red = false;
  const auto fixed = run_experiment(st);
  // Both must deliver comparable volume; adaptive RED must not collapse.
  EXPECT_GT(adaptive.delivered, fixed.delivered * 9 / 10);
  EXPECT_EQ(adaptive.routing_errors, 0u);
}

}  // namespace
}  // namespace burst
