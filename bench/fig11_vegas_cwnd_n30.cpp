// Figure 11: evolution of TCP Vegas's congestion window, 30 clients.
// Same flat equilibrium as Fig 10, at higher load.
#include <iostream>

#include "bench/common.hpp"
#include "src/stats/running_stats.hpp"

int main() {
  using namespace burst;
  using namespace burst::bench;

  const ExperimentResult r = run_cwnd_figure(
      "Figure 11 — TCP Vegas congestion windows, 30 clients",
      "windows remain near-optimal at moderate congestion; far fewer "
      "losses than Reno at the same load",
      Transport::kVegas, 30).result;

  // Contrast with Reno at the same load.
  Scenario sc = paper_base();
  sc.transport = Transport::kReno;
  sc.num_clients = 30;
  const auto reno = run_experiment(sc);

  std::cout << "\nVegas vs Reno at N=30: loss% " << fmt(r.loss_pct, 3)
            << " vs " << fmt(reno.loss_pct, 3) << ", timeouts " << r.timeouts
            << " vs " << reno.timeouts << "\n\n";
  verdict(r.loss_pct <= reno.loss_pct,
          "Vegas loses no more than Reno at 30 clients");
  verdict(r.timeouts <= reno.timeouts,
          "Vegas times out no more than Reno at 30 clients");
  verdict(r.cov <= reno.cov, "Vegas aggregate is smoother than Reno's");
  return 0;
}
