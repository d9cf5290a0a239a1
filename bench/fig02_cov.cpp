// Figure 2: coefficient of variation of the aggregated traffic arriving at
// the gateway, per round-trip-propagation-delay window, vs number of
// clients — for the aggregated Poisson process (analytic), UDP, Reno,
// Reno/RED, Vegas, Vegas/RED and Reno/DelayAck.
#include <iostream>

#include "bench/common.hpp"

int main() {
  using namespace burst;
  using namespace burst::bench;

  banner("Figure 2 — c.o.v. of the aggregated TCP traffic",
         "UDP tracks Poisson; Reno (and worse, Reno/RED) become far "
         "burstier past saturation (~39 clients); Vegas stays smooth");

  const auto series = figure_sweep("fig02_cov", paper_base());
  const std::vector<SweepPoint>& grid = series[0].points;

  // Assemble the table with the analytic Poisson column first.
  std::vector<std::string> header{"clients", "Poisson"};
  for (const auto& s : series) header.push_back(s.name);
  std::vector<std::vector<std::string>> rows;
  for (std::size_t p = 0; p < grid.size(); ++p) {
    std::vector<std::string> row{std::to_string(grid[p].num_clients)};
    row.push_back(fmt(grid[p].result.poisson_cov, 4));
    for (const auto& s : series) row.push_back(fmt(s.points[p].result.cov, 4));
    rows.push_back(std::move(row));
  }
  print_table(std::cout, header, rows);

  // Verdicts on the paper's claims, evaluated on the heavy-congestion tail
  // (N >= 44).
  double udp_dev = 0.0, reno_ratio = 0.0, reno_red_ratio = 0.0,
         vegas_ratio = 0.0, vegas_red_ratio = 0.0;
  int tail = 0;
  for (std::size_t p = 0; p < grid.size(); ++p) {
    if (grid[p].num_clients < 44) continue;
    ++tail;
    const double poisson = grid[p].result.poisson_cov;
    auto cov_of = [&](const char* name) -> double {
      for (const auto& s : series) {
        if (s.name == name) return s.points[p].result.cov;
      }
      return 0.0;
    };
    udp_dev += std::abs(cov_of("UDP") - poisson) / poisson;
    reno_ratio += cov_of("Reno") / poisson;
    reno_red_ratio += cov_of("Reno/RED") / poisson;
    vegas_ratio += cov_of("Vegas") / poisson;
    vegas_red_ratio += cov_of("Vegas/RED") / poisson;
  }
  udp_dev /= tail;
  reno_ratio /= tail;
  reno_red_ratio /= tail;
  vegas_ratio /= tail;
  vegas_red_ratio /= tail;

  std::cout << "\nheavy-congestion (N>=44) cov relative to Poisson:\n"
            << "  Reno x" << fmt(reno_ratio, 2) << "  Reno/RED x"
            << fmt(reno_red_ratio, 2) << "  Vegas x" << fmt(vegas_ratio, 2)
            << "  Vegas/RED x" << fmt(vegas_red_ratio, 2) << "  (UDP dev "
            << fmt(100 * udp_dev, 1) << "%)\n\n";

  verdict(udp_dev < 0.15, "UDP c.o.v. tracks the aggregated Poisson curve");
  verdict(reno_ratio > 1.5,
          "Reno modulates traffic to be much burstier under heavy congestion");
  verdict(reno_red_ratio > reno_ratio,
          "Reno/RED is burstier than plain Reno (RED hurts c.o.v.)");
  verdict(vegas_ratio < reno_ratio,
          "Vegas stays much smoother than Reno under heavy congestion");
  verdict(vegas_red_ratio > vegas_ratio,
          "Vegas/RED is burstier than plain Vegas");
  return 0;
}
