// CSV export round-trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "src/core/report.hpp"

namespace burst {
namespace {

TEST(Export, WriteSweepCsv) {
  SweepSeries a{"Reno", {}};
  SweepSeries b{"Vegas", {}};
  for (int n : {10, 20}) {
    SweepPoint p;
    p.num_clients = n;
    p.result.cov = n / 100.0;
    a.points.push_back(p);
    p.result.cov = n / 200.0;
    b.points.push_back(p);
  }
  const std::string path = ::testing::TempDir() + "/burst_sweep.csv";
  write_sweep_csv(path, {a, b},
                  [](const ExperimentResult& r) { return r.cov; });
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "clients,Reno,Vegas");
  std::getline(f, line);
  EXPECT_EQ(line, "10,0.1,0.05");
  std::getline(f, line);
  EXPECT_EQ(line, "20,0.2,0.1");
  std::remove(path.c_str());
}

TEST(Export, WriteSweepCsvEmpty) {
  const std::string path = ::testing::TempDir() + "/burst_sweep_empty.csv";
  write_sweep_csv(path, {},
                  [](const ExperimentResult& r) { return r.cov; });
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "clients");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace burst
