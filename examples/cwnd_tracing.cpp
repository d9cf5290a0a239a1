// cwnd_tracing: how to record congestion-window evolution (the paper's
// Figs 5-12) and export it as CSV for plotting.
//
//   $ ./cwnd_tracing [reno|vegas] [num_clients] [out_prefix]
#include <cstring>
#include <iostream>

#include "src/core/experiment.hpp"
#include "src/core/report.hpp"
#include "src/stats/trace_analysis.hpp"

int main(int argc, char** argv) {
  using namespace burst;

  Scenario sc = Scenario::paper_default();
  sc.transport = (argc > 1 && std::strcmp(argv[1], "vegas") == 0)
                     ? Transport::kVegas
                     : Transport::kReno;
  sc.num_clients = argc > 2 ? std::atoi(argv[2]) : 30;
  const std::string prefix = argc > 3 ? argv[3] : "";

  // Trace three spread-out clients, sampled every 0.1 s like the paper.
  ExperimentOptions opts;
  opts.trace_clients = {0, sc.num_clients / 2, sc.num_clients - 1};
  opts.cwnd_sample_period = 0.1;

  std::cout << "tracing " << sc.label() << " for " << sc.duration << " s\n\n";
  const ExperimentResult r = run_experiment(sc, opts);

  print_cwnd_traces(std::cout, r.cwnd_traces, sc.duration, 0.1, 40);

  // Summaries the paper reads off these plots.
  const auto cuts = decrease_counts(r.cwnd_traces, 0.0, sc.duration);
  std::cout << "\nwindow decreases per traced flow:";
  for (const auto c : cuts) std::cout << ' ' << c;
  std::cout << "\nmax synchronized-cut fraction: "
            << fmt(max_sync_fraction(r.cwnd_traces, 0.1, 0.0, sc.duration), 3)
            << "\nc.o.v. " << fmt(r.cov, 4) << " (Poisson "
            << fmt(r.poisson_cov, 4) << "), delivered " << r.delivered
            << ", loss " << fmt(r.loss_pct, 2) << " %, timeouts "
            << r.timeouts << ", fast retransmits " << r.fast_retransmits
            << ", Jain fairness " << fmt(r.fairness, 4) << "\n";

  if (!prefix.empty()) {
    for (const auto& t : r.cwnd_traces) {
      const std::string path = prefix + "_" + t.name() + ".csv";
      write_trace_csv(path, t);
      std::cout << "wrote " << path << '\n';
    }
  }
  return 0;
}
