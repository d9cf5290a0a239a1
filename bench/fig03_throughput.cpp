// Figure 3: total number of packets successfully transmitted vs number of
// clients, for Reno, Reno/RED, Vegas, Vegas/RED and Reno/DelayAck.
#include <iostream>

#include "bench/common.hpp"

int main() {
  using namespace burst;
  using namespace burst::bench;

  banner("Figure 3 — Throughput of the aggregated TCP traffic",
         "throughput plateaus at the bottleneck; plain variants beat their "
         "RED counterparts; Vegas >= Reno under heavy load");

  const Scenario base = paper_base();
  const auto series = figure_sweep("fig03_throughput", base);

  print_metric_vs_clients(
      std::cout, series, "total packets successfully transmitted",
      [](const ExperimentResult& r) { return static_cast<double>(r.delivered); },
      0);

  // Capacity reference line.
  const double cap = base.bottleneck_pps() * base.duration;
  std::cout << "\nbottleneck capacity over the run: " << fmt(cap, 0)
            << " packets\n\n";

  auto tail_mean = [&](const char* name) {
    double sum = 0.0;
    int cnt = 0;
    for (const auto& s : series) {
      if (s.name != name) continue;
      for (const auto& p : s.points) {
        if (p.num_clients < 45) continue;
        sum += static_cast<double>(p.result.delivered);
        ++cnt;
      }
    }
    return sum / cnt;
  };
  const double reno = tail_mean("Reno");
  const double reno_red = tail_mean("Reno/RED");
  const double vegas = tail_mean("Vegas");
  const double vegas_red = tail_mean("Vegas/RED");

  verdict(reno > reno_red, "Reno outperforms Reno/RED in throughput");
  verdict(vegas > vegas_red, "Vegas outperforms Vegas/RED in throughput");
  verdict(vegas >= 0.95 * reno, "Vegas at least matches Reno's throughput");
  verdict(reno < 1.01 * cap && vegas < 1.01 * cap,
          "throughput is bounded by the bottleneck capacity (plateau)");
  return 0;
}
