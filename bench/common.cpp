#include "bench/common.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <utility>

#include "src/run/campaign.hpp"
#include "src/topo/parser.hpp"

namespace burst::bench {

Scenario paper_base() {
  Scenario s = Scenario::paper_default();
  for (const auto& [env, field] : {std::pair{"BURST_DURATION", "duration"},
                                   std::pair{"BURST_SEED", "seed"}}) {
    const char* v = std::getenv(env);
    std::string msg;
    if (v != nullptr && !apply_scenario_field(&s, field, v, &msg)) {
      std::cerr << "error: " << env << ": " << msg << "\n";
      std::exit(2);
    }
  }
  return s;
}

void banner(const std::string& figure, const std::string& paper_claim) {
  std::cout << "==============================================================\n"
            << figure << "\n"
            << "Paper: " << paper_claim << "\n"
            << "==============================================================\n";
}

void verdict(bool ok, const std::string& what) {
  std::cout << (ok ? "[REPRODUCED] " : "[DEVIATION]  ") << what << "\n";
}

std::vector<int> fig2_clients() {
  std::vector<int> ns = range(4, 36, 4);
  for (int n : {38, 39, 40, 44, 48, 52, 56, 60}) ns.push_back(n);
  return ns;
}

std::vector<int> fig34_clients() { return range(30, 60, 3); }

std::vector<SweepSeries> figure_sweep(const std::string& name,
                                      const Scenario& base,
                                      const std::vector<int>& client_counts,
                                      const std::vector<SweepConfig>& configs) {
  CampaignSweep sweep;
  sweep.name = name;
  sweep.base = base;
  sweep.client_counts = client_counts;
  sweep.configs = configs;

  CampaignOptions opts;
  if (const char* cache = std::getenv("BURST_CACHE_DIR")) {
    opts.cache_dir = cache;
  }
  opts.use_cache = std::getenv("BURST_NO_CACHE") == nullptr;
  opts.log = opts.cache_dir.empty() ? nullptr : &std::cerr;
  return run_campaign({sweep}, opts).sweeps.front().second;
}

void maybe_write_sweep_csv(const std::string& name,
                           const std::vector<SweepSeries>& series,
                           double (*metric)(const ExperimentResult&)) {
  const char* dir = std::getenv("BURST_CSV_DIR");
  if (!dir) return;
  const std::string path = std::string(dir) + "/" + name + ".csv";
  if (!write_sweep_csv(path, series, metric)) {
    std::cerr << "error: could not write " << path << "\n";
    return;
  }
  std::cout << "wrote " << path << "\n";
}

ExperimentResult run_cwnd_figure(const std::string& figure,
                                 const std::string& claim, Transport transport,
                                 int num_clients) {
  banner(figure, claim);
  Scenario sc = paper_base();
  sc.transport = transport;
  sc.num_clients = num_clients;

  ExperimentOptions opts;
  // The paper traces three spread-out clients (e.g. 1, 10, 20 of 20).
  opts.trace_clients = {0, num_clients / 2, num_clients - 1};
  opts.cwnd_sample_period = 0.1;  // the paper's x-axis unit

  const ExperimentResult r = run_experiment(sc, opts);

  std::cout << "scenario: " << sc.label() << ", duration " << sc.duration
            << " s\n\n";
  print_cwnd_traces(std::cout, r.cwnd_traces, sc.duration, 0.1, 50);
  std::cout << "\ntimeouts=" << r.timeouts
            << " fast_retransmits=" << r.fast_retransmits
            << " loss%=" << fmt(r.loss_pct, 2) << " cov=" << fmt(r.cov, 4)
            << " (poisson " << fmt(r.poisson_cov, 4) << ")\n";
  return r;
}

}  // namespace burst::bench
