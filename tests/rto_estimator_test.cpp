#include "src/transport/rto_estimator.hpp"

#include <gtest/gtest.h>

namespace burst {
namespace {

RtoConfig fine_config() {
  RtoConfig cfg;
  cfg.granularity = 0.0;  // exact, for arithmetic checks
  cfg.min_rto = 0.0;
  cfg.max_rto = 64.0;
  cfg.initial_rto = 3.0;
  return cfg;
}

TEST(RtoEstimator, InitialRtoBeforeSamples) {
  RtoEstimator e{RtoConfig{}};
  EXPECT_FALSE(e.has_sample());
  EXPECT_DOUBLE_EQ(e.rto(), 3.0);
}

TEST(RtoEstimator, FirstSampleSetsSrttAndVar) {
  RtoEstimator e(fine_config());
  e.sample(0.1);
  EXPECT_TRUE(e.has_sample());
  EXPECT_DOUBLE_EQ(e.srtt(), 0.1);
  EXPECT_DOUBLE_EQ(e.rttvar(), 0.05);
  EXPECT_DOUBLE_EQ(e.rto(), 0.1 + 4 * 0.05);
}

TEST(RtoEstimator, JacobsonUpdateArithmetic) {
  RtoEstimator e(fine_config());
  e.sample(0.1);
  e.sample(0.2);
  // rttvar = 0.75*0.05 + 0.25*|0.1-0.2| = 0.0625
  // srtt   = 0.875*0.1 + 0.125*0.2     = 0.1125
  EXPECT_NEAR(e.rttvar(), 0.0625, 1e-12);
  EXPECT_NEAR(e.srtt(), 0.1125, 1e-12);
}

TEST(RtoEstimator, ConvergesToConstantRtt) {
  RtoEstimator e(fine_config());
  for (int i = 0; i < 200; ++i) e.sample(0.08);
  EXPECT_NEAR(e.srtt(), 0.08, 1e-6);
  EXPECT_NEAR(e.rttvar(), 0.0, 1e-4);
}

TEST(RtoEstimator, GranularityRoundsUp) {
  RtoConfig cfg;
  cfg.granularity = 0.1;
  cfg.min_rto = 0.0;
  RtoEstimator e(cfg);
  e.sample(0.08);  // srtt+4var = 0.08+0.16 = 0.24 -> rounds to 0.3
  EXPECT_DOUBLE_EQ(e.rto(), 0.3);
}

TEST(RtoEstimator, MinRtoClamps) {
  RtoEstimator e{RtoConfig{}};  // default min_rto = 0.2
  e.sample(0.001);
  EXPECT_GE(e.rto(), 0.2);
}

TEST(RtoEstimator, MaxRtoClamps) {
  RtoConfig cfg = fine_config();
  cfg.max_rto = 1.0;
  RtoEstimator e(cfg);
  e.sample(10.0);
  EXPECT_DOUBLE_EQ(e.rto(), 1.0);
}

TEST(RtoEstimator, BackoffDoublesAndResets) {
  RtoEstimator e(fine_config());
  e.sample(0.1);
  const Time base = e.rto();
  e.backoff();
  EXPECT_DOUBLE_EQ(e.rto(), 2 * base);
  e.backoff();
  EXPECT_DOUBLE_EQ(e.rto(), 4 * base);
  EXPECT_EQ(e.backoff_factor(), 4);
  e.reset_backoff();
  EXPECT_DOUBLE_EQ(e.rto(), base);
}

TEST(RtoEstimator, BackoffCappedByMaxRto) {
  RtoConfig cfg = fine_config();
  cfg.max_rto = 2.0;
  RtoEstimator e(cfg);
  e.sample(0.5);  // rto = 1.5
  for (int i = 0; i < 10; ++i) e.backoff();
  EXPECT_DOUBLE_EQ(e.rto(), 2.0);
}

TEST(RtoEstimator, BackoffFactorSaturates) {
  RtoEstimator e(fine_config());
  for (int i = 0; i < 20; ++i) e.backoff();
  EXPECT_EQ(e.backoff_factor(), 64);
}

// The estimator is a plain value: a copy carries the state so far and
// then evolves on its own, and assignment copies the state back.
TEST(RtoEstimator, CopiesAreIndependentValues) {
  RtoEstimator a(fine_config());
  a.sample(0.5);
  RtoEstimator b = a;
  EXPECT_TRUE(b.has_sample());
  EXPECT_DOUBLE_EQ(b.srtt(), 0.5);
  EXPECT_DOUBLE_EQ(b.rttvar(), 0.25);
  b.sample(1.0);
  b.backoff();
  EXPECT_DOUBLE_EQ(a.srtt(), 0.5);
  EXPECT_DOUBLE_EQ(a.rttvar(), 0.25);
  EXPECT_EQ(a.backoff_factor(), 1);
  EXPECT_GT(b.srtt(), 0.5);
  EXPECT_EQ(b.backoff_factor(), 2);
  a = b;
  EXPECT_DOUBLE_EQ(a.srtt(), b.srtt());
  EXPECT_DOUBLE_EQ(a.rttvar(), b.rttvar());
  EXPECT_EQ(a.backoff_factor(), 2);
  EXPECT_DOUBLE_EQ(a.rto(), b.rto());
}

}  // namespace
}  // namespace burst
