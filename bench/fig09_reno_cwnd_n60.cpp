// Figure 9: evolution of TCP Reno's congestion window, 60 clients. Deep
// congestion: most streams make the same congestion-control decision at
// the same time (synchronized halving / timeouts), inducing the wild
// aggregate fluctuations behind Fig 2's c.o.v. spike.
#include <iostream>

#include "bench/common.hpp"

int main() {
  using namespace burst;
  using namespace burst::bench;

  const ExperimentResult r = run_cwnd_figure(
      "Figure 9 — TCP Reno congestion windows, 60 clients",
      "heavy congestion: window decreases are strongly synchronized "
      "across streams (dependency between congestion-control decisions)",
      Transport::kReno, 60).result;

  // Re-run tracing *every* client to quantify synchronization.
  Scenario sc = paper_base();
  sc.transport = Transport::kReno;
  sc.num_clients = 60;
  const auto cwnd60 = run_traced(sc, all_clients(sc.num_clients)).cwnd;
  const double sync60 = max_sync_fraction(cwnd60, 0.1, 1.0, sc.duration);

  // Compare against a light-load run where decreases are rare/uncoupled.
  Scenario sc20 = sc;
  sc20.num_clients = 20;
  const auto cwnd20 = run_traced(sc20, all_clients(sc20.num_clients)).cwnd;
  const double sync20 = max_sync_fraction(cwnd20, 0.1, 1.0, sc20.duration);

  std::cout << "\nmax fraction of flows cutting cwnd within one 0.1 s bin: "
            << fmt(sync60, 3) << " at N=60 vs " << fmt(sync20, 3)
            << " at N=20\n\n";
  verdict(sync60 > 0.25,
          "a large fraction of the 60 streams cut their windows together");
  verdict(sync60 > sync20,
          "synchronization grows with congestion (N=60 vs N=20)");
  verdict(r.timeouts > 0, "timeouts contribute to the synchronized resets");
  return 0;
}
