// Figure 10: evolution of TCP Vegas's congestion window, 20 clients.
// Vegas pins each window near its optimal value, so traces are nearly
// flat compared with Reno's sawtooth at the same load (Fig 5).
#include <iostream>

#include "bench/common.hpp"
#include "src/stats/running_stats.hpp"

int main() {
  using namespace burst;
  using namespace burst::bench;

  const auto [r, cwnd] = run_cwnd_figure(
      "Figure 10 — TCP Vegas congestion windows, 20 clients",
      "windows stay close to their optimal value; traffic from each client "
      "is modulated nearly equally each RTT",
      Transport::kVegas, 20);

  // Steady-state flatness: after the slow-start transient the traced
  // windows vary little (compare Fig 5's Reno sawtooth). Each window is
  // sampled every 0.1 s, the paper's x-axis unit.
  const Time dur = r.scenario.duration;
  double worst_cov = 0.0;
  for (const auto& t : cwnd) {
    RunningStats rs;
    for (const double v : resample(t, dur / 4, dur, 0.1, 1.0)) rs.add(v);
    worst_cov = std::max(worst_cov, rs.cov());
  }
  std::cout << "\nworst steady-state cwnd c.o.v. among traced flows: "
            << fmt(worst_cov, 3) << "\n\n";
  verdict(worst_cov < 0.35, "Vegas windows hold near equilibrium (flat)");
  verdict(r.timeouts == 0, "no timeouts at 20 clients under Vegas");
  verdict(r.loss_pct < 0.1, "essentially lossless at 20 clients");
  return 0;
}
