// Ablation: heterogeneous round-trip times. The paper's clients all share
// one RTT; real distributed systems do not. Reno's throughput scales like
// 1/RTT under contention, so short-RTT flows should crowd out long-RTT
// ones; Vegas's rate targeting is less RTT-coupled.
#include <iostream>

#include "bench/common.hpp"
#include "src/stats/correlation.hpp"
#include "src/stats/fairness.hpp"
#include "src/topo/builder.hpp"
#include "src/topo/spec.hpp"

namespace {

using namespace burst;

struct HeteroResult {
  double rtt_goodput_corr = 0.0;  // Pearson(client delay, delivered)
  double fairness = 1.0;
};

HeteroResult run_hetero(Transport t, int n) {
  Scenario sc = bench::paper_base();
  sc.transport = t;
  sc.num_clients = n;
  sc.client_delay_spread = 0.8;  // delays span 4..36 ms around 20 ms

  Simulator sim(sc.seed);
  TopoNet net(sim, make_dumbbell_spec(sc));
  net.start_sources();
  sim.run(sc.duration);

  std::vector<double> delays, goodputs;
  const auto per_flow = net.per_flow_delivered();
  for (int i = 0; i < n; ++i) {
    delays.push_back(sc.client_delay_for(i));
    goodputs.push_back(per_flow[static_cast<std::size_t>(i)]);
  }
  HeteroResult out;
  out.rtt_goodput_corr = pearson(delays, goodputs);
  out.fairness = jain_fairness(per_flow);
  return out;
}

}  // namespace

int main() {
  using namespace burst;
  using namespace burst::bench;

  banner("Ablation — heterogeneous client RTTs",
         "under contention both protocols favor short-RTT flows (Reno via "
         "1/RTT throughput scaling, Vegas via its per-RTT update rate — "
         "cf. the paper's ref [12]); Vegas still shares more fairly "
         "overall");

  const int n = 55;  // past saturation: flows genuinely compete
  std::vector<std::vector<std::string>> rows;
  HeteroResult reno{}, vegas{};
  for (Transport t : {Transport::kReno, Transport::kVegas}) {
    const auto r = run_hetero(t, n);
    rows.push_back(
        {to_string(t), fmt(r.rtt_goodput_corr, 3), fmt(r.fairness, 4)});
    if (t == Transport::kReno) reno = r;
    else vegas = r;
  }
  print_table(std::cout, {"transport", "corr(RTT, goodput)", "fairness"},
              rows);

  std::cout << '\n';
  verdict(reno.rtt_goodput_corr < -0.1,
          "Reno goodput falls with RTT (short-RTT flows win)");
  verdict(vegas.rtt_goodput_corr < -0.1,
          "Vegas is RTT-biased too (per-RTT increments favor short RTTs)");
  verdict(vegas.fairness > reno.fairness,
          "Vegas still shares the bottleneck more fairly overall");
  return 0;
}
