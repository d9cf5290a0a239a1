#include "src/core/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/core/experiment.hpp"
#include "src/obs/trace.hpp"

namespace burst {
namespace {

TEST(Report, FmtPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.14159, 4), "3.1416");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

TEST(Report, PrintTableAlignsColumns) {
  std::ostringstream os;
  print_table(os, {"a", "long_header"},
              {{"1", "2"}, {"333", "4"}});
  const std::string out = os.str();
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  // Every line has the same length (alignment).
  std::istringstream is(out);
  std::string line;
  std::size_t len = 0;
  while (std::getline(is, line)) {
    if (len == 0) len = line.size();
    EXPECT_EQ(line.size(), len);
  }
}

TEST(Report, PrintMetricVsClients) {
  SweepSeries s1{"Reno", {}};
  SweepPoint p;
  p.num_clients = 10;
  p.result.cov = 0.5;
  s1.points.push_back(p);
  p.num_clients = 20;
  p.result.cov = 0.25;
  s1.points.push_back(p);

  std::ostringstream os;
  print_metric_vs_clients(os, {s1}, "c.o.v.",
                          [](const ExperimentResult& r) { return r.cov; }, 2);
  const std::string out = os.str();
  EXPECT_NE(out.find("c.o.v."), std::string::npos);
  EXPECT_NE(out.find("Reno"), std::string::npos);
  EXPECT_NE(out.find("0.50"), std::string::npos);
  EXPECT_NE(out.find("0.25"), std::string::npos);
  EXPECT_NE(out.find("20"), std::string::npos);
}

TEST(Report, PrintMetricEmptySeriesIsNoOp) {
  std::ostringstream os;
  print_metric_vs_clients(os, {}, "x",
                          [](const ExperimentResult& r) { return r.cov; });
  EXPECT_TRUE(os.str().empty());
}

TEST(Report, PrintCwndTraces) {
  TraceSeries t("client 1");
  t.record(0.0, 1.0);
  t.record(1.0, 2.0);
  t.record(2.0, 4.0);
  std::ostringstream os;
  print_cwnd_series(os, {t}, 2.0, 0.5, 100);
  const std::string out = os.str();
  EXPECT_NE(out.find("client 1"), std::string::npos);
  EXPECT_NE(out.find("t(s)"), std::string::npos);
  EXPECT_NE(out.find("4.0"), std::string::npos);
}

TEST(Report, WriteCsvReportsUnwritablePath) {
  const std::string bad =
      ::testing::TempDir() + "/no_such_dir_for_report_test/out.csv";
  TraceSeries t("cwnd");
  t.record(0.5, 3.25);
  EXPECT_FALSE(write_trace_csv(bad, t));
  EXPECT_FALSE(write_sweep_csv(bad, {},
                               [](const ExperimentResult& r) { return r.cov; }));
}

TEST(Report, WriteTraceCsvRoundTrips) {
  TraceSeries t("cwnd");
  t.record(0.5, 3.25);
  const std::string path = ::testing::TempDir() + "/burst_trace_test.csv";
  EXPECT_TRUE(write_trace_csv(path, t));
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string header, row;
  std::getline(f, header);
  std::getline(f, row);
  EXPECT_EQ(header, "time,cwnd");
  EXPECT_EQ(row, "0.5,3.25");
  std::remove(path.c_str());
}

// A CSV row spells its numbers as the trace exports do (17 significant
// digits), so it equals the cwnd_change record it came from.
TEST(Report, WriteTraceCsvSpellsNumbersLikeTheTraceExports) {
  TraceSeries t("client 1");
  t.record(0.085807768326380304, 2.0);
  t.record(1.0 / 3.0, 1.5);
  const std::string path = ::testing::TempDir() + "/burst_trace_exact.csv";
  ASSERT_TRUE(write_trace_csv(path, t));
  std::ifstream f(path);
  std::string header, row1, row2;
  std::getline(f, header);
  std::getline(f, row1);
  std::getline(f, row2);
  EXPECT_EQ(header, "time,client 1");
  EXPECT_EQ(row1, "0.085807768326380304,2");
  EXPECT_EQ(row2, "0.33333333333333331,1.5");
  std::remove(path.c_str());
}

// A ring that overwrote records lost the start of some series: no cwnd
// trace is read from it rather than one that starts late.
TEST(Report, ClientCwndTracesRefuseARingThatOverwrote) {
  Scenario s = Scenario::paper_default();
  s.num_clients = 5;
  s.duration = 2.0;
  s.warmup = 0.5;
  TraceSink small(64);
  ExperimentOptions opts;
  opts.trace = &small;
  run_experiment(s, opts);
  ASSERT_GT(small.dropped(), 0u);
  EXPECT_FALSE(client_cwnd_series(small, {0}).has_value());

  TraceSink full;
  opts.trace = &full;
  run_experiment(s, opts);
  ASSERT_EQ(full.dropped(), 0u);
  const auto traces = client_cwnd_series(full, {0, 4});
  ASSERT_TRUE(traces.has_value());
  ASSERT_EQ(traces->size(), 2u);
  EXPECT_EQ((*traces)[1].name(), "client 5");
  EXPECT_FALSE((*traces)[1].empty());
  EXPECT_EQ((*traces)[1].points(), full.cwnd_series(4, "").points());
}

}  // namespace
}  // namespace burst
