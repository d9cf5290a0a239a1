// Quickstart: build the paper's dumbbell, run one scenario per transport,
// and print the headline metrics. Start here to learn the public API.
//
//   $ ./quickstart [num_clients]
#include <cstdlib>
#include <iostream>
#include <tuple>

#include "src/core/experiment.hpp"
#include "src/core/report.hpp"

int main(int argc, char** argv) {
  using namespace burst;

  // 1. Start from the paper's Table 1 configuration.
  Scenario base = Scenario::paper_default();
  base.num_clients = argc > 1 ? std::atoi(argv[1]) : 40;
  base.duration = 60.0;  // 3x the paper's run, for tighter c.o.v. estimates

  std::cout << "Paper dumbbell: " << base.num_clients << " Poisson clients ("
            << 1.0 / base.mean_interarrival << " pkt/s each) -> gateway -> "
            << base.bottleneck_bw_bps / 1e6 << " Mbps bottleneck ("
            << fmt(base.bottleneck_pps(), 1) << " pkt/s, saturates at N="
            << fmt(base.saturation_clients(), 1) << ")\n\n";

  // 2. Run it under each transport and queueing discipline.
  std::vector<std::vector<std::string>> rows;
  for (const auto& [name, transport, red] :
       std::vector<std::tuple<std::string, Transport, bool>>{
           {"UDP", Transport::kUdp, false},
           {"Reno", Transport::kReno, false},
           {"Reno/RED", Transport::kReno, true},
           {"Vegas", Transport::kVegas, false},
           {"Vegas/RED", Transport::kVegas, true}}) {
    Scenario sc = base;
    sc.transport = transport;
    sc.gateway = red ? GatewayQueue::kRed : GatewayQueue::kDropTail;

    // 3. run_experiment builds the topology, runs, and gathers metrics.
    const ExperimentResult r = run_experiment(sc);

    rows.push_back({name, fmt(r.cov, 3), fmt(r.poisson_cov, 3),
                    std::to_string(r.delivered), fmt(r.loss_pct, 2),
                    std::to_string(r.timeouts), fmt(r.fairness, 3)});
  }

  // 4. The c.o.v. column is the paper's burstiness metric: compare each
  //    transport against the analytic Poisson value.
  print_table(std::cout,
              {"transport", "cov", "poisson", "delivered", "loss%",
               "timeouts", "fairness"},
              rows);
  return 0;
}
