// Figure 5: evolution of TCP Reno's congestion window, 20 clients.
// The paper's observation: even in the "uncongested" regime, synchronized
// slow-start backlog bursts overflow the 50-packet buffer, so losses occur
// (and nearly all of them during slow start, when windows grow fastest).
#include <iostream>

#include "bench/common.hpp"

int main() {
  using namespace burst;
  using namespace burst::bench;

  const auto [r, cwnd] = run_cwnd_figure(
      "Figure 5 — TCP Reno congestion windows, 20 clients",
      "losses occur despite ~52% average load; bursts of ~17 packets from "
      "a few streams overflow the B=50 gateway buffer during slow start",
      Transport::kReno, 20);

  std::cout << '\n';
  verdict(r.gw_drops > 0,
          "drops occur at 20 clients although mean utilization is ~52%");
  verdict(r.loss_pct < 2.0,
          "loss stays mild (congestion is intermittent, not sustained)");

  // Windows must actually exercise the slow-start range the paper plots
  // (values up to ~17-20 packets).
  double w_max = 0.0;
  for (const auto& t : cwnd) {
    for (const auto& [at, v] : t.points()) w_max = std::max(w_max, v);
  }
  verdict(w_max >= 15.0, "traced windows reach the 15-20 packet range");
  return 0;
}
