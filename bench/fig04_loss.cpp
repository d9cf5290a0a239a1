// Figure 4: packet loss percentage at the gateway vs number of clients,
// for Reno, Reno/RED, Vegas, Vegas/RED and Reno/DelayAck.
#include <iostream>

#include "bench/common.hpp"

int main() {
  using namespace burst;
  using namespace burst::bench;

  banner("Figure 4 — Packet loss percentage of the aggregated TCP traffic",
         "loss grows past saturation; plain Vegas is lowest; Vegas/RED is "
         "higher than plain Vegas (and higher than plain Reno)");

  const Scenario base = paper_base();
  const auto series = figure_sweep("fig04_loss", base);

  print_metric_vs_clients(
      std::cout, series, "packet loss percentage (%)",
      [](const ExperimentResult& r) { return r.loss_pct; }, 2);

  auto tail_mean = [&](const char* name) {
    double sum = 0.0;
    int cnt = 0;
    for (const auto& s : series) {
      if (s.name != name) continue;
      for (const auto& p : s.points) {
        if (p.num_clients < 45) continue;
        sum += p.result.loss_pct;
        ++cnt;
      }
    }
    return sum / cnt;
  };
  const double reno = tail_mean("Reno");
  const double vegas = tail_mean("Vegas");
  const double vegas_red = tail_mean("Vegas/RED");

  std::cout << "\nheavy-congestion (N>=45) mean loss%: Reno "
            << fmt(reno, 2) << ", Vegas " << fmt(vegas, 2) << ", Vegas/RED "
            << fmt(vegas_red, 2) << "\n\n";

  verdict(vegas < reno, "plain Vegas has the lowest loss among TCP variants");
  verdict(vegas_red > vegas, "Vegas/RED loses more than plain Vegas");
  verdict(vegas_red > reno,
          "Vegas/RED loses more than plain Reno (Sec 3.2.3's surprise)");

  // Loss grows with load for every series.
  bool monotone_tail = true;
  for (const auto& s : series) {
    if (s.points.front().result.loss_pct > s.points.back().result.loss_pct) {
      monotone_tail = false;
    }
  }
  verdict(monotone_tail, "loss grows from N=30 to N=60 for every variant");
  return 0;
}
