// Figure 12: evolution of TCP Vegas's congestion window, 60 clients.
// Even under heavy congestion, Vegas's per-RTT +-1 adjustment avoids the
// synchronized multiplicative cuts that dominate Reno's Fig 9, and shares
// bandwidth more fairly.
#include <iostream>

#include "bench/common.hpp"

int main() {
  using namespace burst;
  using namespace burst::bench;

  run_cwnd_figure(
      "Figure 12 — TCP Vegas congestion windows, 60 clients",
      "windows stay small and stable; Vegas shares bandwidth fairly and "
      "avoids Reno's synchronized window collapses",
      Transport::kVegas, 60);

  // Quantify synchronization across *all* flows, like the Fig 9 bench.
  Scenario sc = paper_base();
  sc.num_clients = 60;
  sc.transport = Transport::kVegas;
  const auto [vall, vcwnd] = run_traced(sc, all_clients(sc.num_clients));
  const double vsync = max_sync_fraction(vcwnd, 0.1, 1.0, sc.duration);

  Scenario rc = sc;
  rc.transport = Transport::kReno;
  const auto [rall, rcwnd] = run_traced(rc, all_clients(rc.num_clients));
  const double rsync = max_sync_fraction(rcwnd, 0.1, 1.0, rc.duration);

  std::cout << "\nmax synchronized-cut fraction at N=60: Vegas "
            << fmt(vsync, 3) << " vs Reno " << fmt(rsync, 3) << "\n"
            << "fairness: Vegas " << fmt(vall.fairness, 4) << " vs Reno "
            << fmt(rall.fairness, 4) << "\n\n";
  verdict(vsync < rsync,
          "Vegas's window cuts are less synchronized than Reno's");
  verdict(vall.fairness >= rall.fairness - 0.005,
          "Vegas shares the bottleneck at least as fairly as Reno");
  verdict(vall.cov < rall.cov, "Vegas aggregate stays smoother at N=60");
  return 0;
}
