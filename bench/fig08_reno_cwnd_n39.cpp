// Figure 8: evolution of TCP Reno's congestion window, 39 clients — just
// past the saturation crossover. The offered load persistently exceeds
// capacity, so windows never stabilize: synchronized decreases continue
// throughout the run and the c.o.v. jumps sharply (Fig 2).
#include <iostream>

#include "bench/common.hpp"

int main() {
  using namespace burst;
  using namespace burst::bench;

  const auto [r, cwnd] = run_cwnd_figure(
      "Figure 8 — TCP Reno congestion windows, 39 clients",
      "just past saturation: windows never stabilize; congestion-control "
      "decisions across streams become dependent (synchronized)",
      Transport::kReno, 39);

  const Time dur = r.scenario.duration;
  const auto late = decrease_counts(cwnd, dur / 2, dur);
  int late_total = 0;
  for (int c : late) late_total += c;

  std::cout << "\nwindow decreases among traced flows in the second half: "
            << late_total << "\n\n";
  verdict(r.scenario.utilization() > 1.0,
          "offered load exceeds capacity at N=39 (saturation crossed)");
  verdict(late_total > 0,
          "losses persist into the second half: windows never stabilize");

  // Contrast with the N=38 run: persistent (not transient) congestion.
  Scenario sc38 = paper_base();
  sc38.transport = Transport::kReno;
  sc38.num_clients = 38;
  const auto r38 = run_experiment(sc38);
  verdict(r.loss_pct >= r38.loss_pct,
          "loss at 39 clients is at least that of 38 clients");
  return 0;
}
