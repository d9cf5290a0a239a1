// Figure 6: evolution of TCP Reno's congestion window, 30 clients.
// Congestion now occurs earlier in slow start, and simultaneous window
// decreases across streams begin to appear, before flows settle into a
// linear-increase pattern.
#include <iostream>

#include "bench/common.hpp"

int main() {
  using namespace burst;
  using namespace burst::bench;

  const auto [r, cwnd] = run_cwnd_figure(
      "Figure 6 — TCP Reno congestion windows, 30 clients",
      "congestion occurs earlier in slow start; some simultaneous window "
      "decreases; flows eventually stabilize into linear increase",
      Transport::kReno, 30);

  std::cout << '\n';
  verdict(r.gw_drops > 0, "congestion (drops) present at 30 clients");

  // More loss activity than at N=20 with the same configuration.
  Scenario sc20 = paper_base();
  sc20.transport = Transport::kReno;
  sc20.num_clients = 20;
  const auto r20 = run_experiment(sc20);
  verdict(r.gw_drops > r20.gw_drops,
          "more drops than the 20-client run (congestion arrives earlier)");

  // Simultaneous decreases among the traced flows exist.
  const double sync = max_sync_fraction(cwnd, 0.1, 0.0, r.scenario.duration);
  verdict(sync >= 2.0 / 3.0,
          "simultaneous window decreases across traced streams appear");
  return 0;
}
