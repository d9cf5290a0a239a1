// cwnd_tracing: how to record congestion-window evolution (the paper's
// Figs 5-12) and export it as CSV for plotting.
//
//   $ ./cwnd_tracing [reno|vegas] [num_clients] [out_prefix]
#include <cstring>
#include <iostream>

#include "src/core/experiment.hpp"
#include "src/core/report.hpp"
#include "src/obs/trace.hpp"
#include "src/stats/trace_analysis.hpp"

int main(int argc, char** argv) {
  using namespace burst;

  Scenario sc = Scenario::paper_default();
  sc.transport = (argc > 1 && std::strcmp(argv[1], "vegas") == 0)
                     ? Transport::kVegas
                     : Transport::kReno;
  sc.num_clients = argc > 2 ? std::atoi(argv[2]) : 30;
  const std::string prefix = argc > 3 ? argv[3] : "";

  // Record the run's event trace; every window change is a cwnd_change
  // record in it.
  TraceSink sink;
  ExperimentOptions opts;
  opts.trace = &sink;

  std::cout << "tracing " << sc.label() << " for " << sc.duration << " s\n\n";
  const ExperimentResult r = run_experiment(sc, opts);

  // Read three spread-out clients' windows back, printed every 0.1 s
  // like the paper's plots. A ring that overwrote records would give
  // series that start late.
  const auto traces = client_cwnd_series(
      sink, {0, sc.num_clients / 2, sc.num_clients - 1});
  if (!traces) {
    std::cerr << "the trace ring overwrote " << sink.dropped()
              << " records\n";
    return 1;
  }
  print_cwnd_series(std::cout, *traces, sc.duration, 0.1, 40);

  // Summaries the paper reads off these plots.
  const auto cuts = decrease_counts(*traces, 0.0, sc.duration);
  std::cout << "\nwindow decreases per traced flow:";
  for (const auto c : cuts) std::cout << ' ' << c;
  std::cout << "\nmax synchronized-cut fraction: "
            << fmt(max_sync_fraction(*traces, 0.1, 0.0, sc.duration), 3)
            << "\nc.o.v. " << fmt(r.cov, 4) << " (Poisson "
            << fmt(r.poisson_cov, 4) << "), delivered " << r.delivered
            << ", loss " << fmt(r.loss_pct, 2) << " %, timeouts "
            << r.timeouts << ", fast retransmits " << r.fast_retransmits
            << ", Jain fairness " << fmt(r.fairness, 4) << "\n";

  if (!prefix.empty()) {
    for (const auto& t : *traces) {
      const std::string path = prefix + "_" + t.name() + ".csv";
      write_trace_csv(path, t);
      std::cout << "wrote " << path << '\n';
    }
  }
  return 0;
}
