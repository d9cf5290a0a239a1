// Figure 13: ratio of timeouts to duplicate ACKs vs number of clients.
// Vegas recovers via (fine-grained) duplicate-ACK retransmission and so
// shows a far lower ratio than the Reno family.
#include <iostream>

#include "bench/common.hpp"

int main() {
  using namespace burst;
  using namespace burst::bench;

  banner("Figure 13 — Ratio of timeouts to duplicate ACKs",
         "Vegas's ratio is very low; Reno variants rely on timeouts far "
         "more (2-3x more timeouts than Vegas)");

  const Scenario base = paper_base();
  const auto series = figure_sweep("fig13_timeout_dupack", base);

  print_metric_vs_clients(
      std::cout, series, "timeouts / duplicate ACKs",
      [](const ExperimentResult& r) { return r.timeout_dupack_ratio; }, 4);

  std::cout << '\n';
  print_metric_vs_clients(
      std::cout, series, "raw timeout counts",
      [](const ExperimentResult& r) { return static_cast<double>(r.timeouts); },
      0);

  auto tail_mean = [&](const char* name, auto metric) {
    double sum = 0.0;
    int cnt = 0;
    for (const auto& s : series) {
      if (s.name != name) continue;
      for (const auto& p : s.points) {
        if (p.num_clients < 45) continue;
        sum += metric(p.result);
        ++cnt;
      }
    }
    return sum / cnt;
  };
  auto ratio = [](const ExperimentResult& r) { return r.timeout_dupack_ratio; };
  auto touts = [](const ExperimentResult& r) {
    return static_cast<double>(r.timeouts);
  };
  const double reno_ratio = tail_mean("Reno", ratio);
  const double vegas_ratio = tail_mean("Vegas", ratio);
  const double reno_touts = tail_mean("Reno", touts);
  const double vegas_touts = tail_mean("Vegas", touts);

  std::cout << "\nheavy-congestion (N>=45) means: Reno ratio "
            << fmt(reno_ratio, 4) << " / timeouts " << fmt(reno_touts, 0)
            << ";  Vegas ratio " << fmt(vegas_ratio, 4) << " / timeouts "
            << fmt(vegas_touts, 0) << "\n\n";

  verdict(vegas_ratio < reno_ratio,
          "Vegas's timeout/dup-ACK ratio is below Reno's");
  verdict(reno_touts > 1.5 * vegas_touts,
          "Reno suffers substantially more timeouts than Vegas");
  return 0;
}
