#include "src/sim/trace.hpp"

#include <gtest/gtest.h>

namespace burst {
namespace {

TEST(TraceSeries, RecordsPoints) {
  TraceSeries t("cwnd");
  EXPECT_TRUE(t.empty());
  t.record(0.0, 1.0);
  t.record(1.0, 2.0);
  EXPECT_EQ(t.name(), "cwnd");
  ASSERT_EQ(t.points().size(), 2u);
  EXPECT_DOUBLE_EQ(t.points()[1].second, 2.0);
}

TEST(TraceSeries, ValueAtStepFunction) {
  TraceSeries t("x");
  t.record(1.0, 10.0);
  t.record(2.0, 20.0);
  t.record(5.0, 50.0);
  EXPECT_DOUBLE_EQ(t.value_at(0.5, -1.0), -1.0);  // before first point
  EXPECT_DOUBLE_EQ(t.value_at(1.0), 10.0);
  EXPECT_DOUBLE_EQ(t.value_at(1.9), 10.0);
  EXPECT_DOUBLE_EQ(t.value_at(2.0), 20.0);
  EXPECT_DOUBLE_EQ(t.value_at(4.999), 20.0);
  EXPECT_DOUBLE_EQ(t.value_at(100.0), 50.0);
}

TEST(TraceSeries, ValueAtEmptyReturnsFallback) {
  TraceSeries t("x");
  EXPECT_DOUBLE_EQ(t.value_at(3.0, 7.0), 7.0);
}

TEST(TraceSeries, ValueAtExactlyFirstAndBetweenPoints) {
  TraceSeries t("x");
  t.record(1.0, 10.0);
  t.record(3.0, 30.0);
  // Exactly at the first sample: the step function is right-continuous,
  // so t = first time yields the first value, not the fallback.
  EXPECT_DOUBLE_EQ(t.value_at(1.0, -1.0), 10.0);
  // Just before it: fallback.
  EXPECT_DOUBLE_EQ(t.value_at(0.9999999999, -1.0), -1.0);
  // Repeated queries between samples are stable.
  EXPECT_DOUBLE_EQ(t.value_at(2.0), 10.0);
  EXPECT_DOUBLE_EQ(t.value_at(2.0), 10.0);
}

TEST(TraceSeries, ValueAtDuplicateTimestampsUsesLatest) {
  // Two records at the same instant (e.g. cwnd halved then slow-start
  // reset within one event): the step function exposes the last write.
  TraceSeries t("x");
  t.record(1.0, 10.0);
  t.record(1.0, 5.0);
  EXPECT_DOUBLE_EQ(t.value_at(1.0), 5.0);
  EXPECT_DOUBLE_EQ(t.value_at(1.5), 5.0);
}

}  // namespace
}  // namespace burst
