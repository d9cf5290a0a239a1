// Ablation: quantify the paper's central mechanism — "TCP Reno introduces
// a high level of dependency between TCP streams" — directly, as the mean
// pairwise correlation of the flows' congestion-window time series and as
// the number of flows hit per gateway drop event.
#include <iostream>

#include "bench/common.hpp"
#include "src/net/flow_monitor.hpp"
#include "src/stats/correlation.hpp"
#include "src/topo/builder.hpp"
#include "src/topo/spec.hpp"

namespace {

using namespace burst;

struct DependencyResult {
  // Mean pairwise Pearson of per-0.1s "this flow cut its window" indicator
  // series. Correlating decrease *events* (not window levels) removes the
  // common slow-start trend that would otherwise dominate.
  double cut_correlation = 0.0;
  double mean_flows_hit = 0.0;  // per gateway drop event
};

DependencyResult measure(Transport transport, int n, Time duration) {
  Scenario sc = bench::paper_base();
  sc.transport = transport;
  sc.num_clients = n;
  sc.duration = duration;

  ExperimentOptions opts;
  for (int i = 0; i < n; ++i) opts.trace_clients.push_back(i);
  opts.cwnd_sample_period = 0.1;

  Simulator sim(sc.seed);
  TopoNet net(sim, make_dumbbell_spec(sc));
  FlowMonitor monitor(net.measured_queue(), /*event_gap=*/0.002);

  // Run via the library pieces directly so the monitor sees this run.
  std::vector<TraceSeries> traces;
  traces.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    traces.emplace_back("c" + std::to_string(i));
    net.tcp_sender(i)->set_cwnd_trace(&traces.back());
  }
  net.start_sources();
  sim.run(sc.duration);

  // Per-flow indicator series: did the window decrease inside this 0.1 s
  // bin? Synchronized congestion decisions show up as correlated spikes.
  const double bin = 0.1;
  const auto n_bins = static_cast<std::size_t>((sc.duration - 1.0) / bin);
  std::vector<std::vector<double>> cuts(
      static_cast<std::size_t>(n), std::vector<double>(n_bins, 0.0));
  for (int f = 0; f < n; ++f) {
    const auto& pts = traces[static_cast<std::size_t>(f)].points();
    for (std::size_t i = 1; i < pts.size(); ++i) {
      if (pts[i].first < 1.0 || pts[i].second >= pts[i - 1].second) continue;
      const auto b = static_cast<std::size_t>((pts[i].first - 1.0) / bin);
      if (b < n_bins) cuts[static_cast<std::size_t>(f)][b] = 1.0;
    }
  }

  DependencyResult out;
  out.cut_correlation = mean_pairwise_correlation(cuts);
  out.mean_flows_hit = monitor.mean_flows_hit();
  return out;
}

}  // namespace

int main() {
  using namespace burst;
  using namespace burst::bench;

  banner("Ablation — dependency between TCP streams",
         "Reno couples the streams (synchronized decisions); Vegas does "
         "not; the coupling grows with congestion");

  const Time duration = paper_base().duration;
  std::vector<std::vector<std::string>> rows;
  DependencyResult reno20{}, reno55{}, vegas55{};
  for (const auto& [name, t, n] :
       std::vector<std::tuple<std::string, Transport, int>>{
           {"Reno N=20", Transport::kReno, 20},
           {"Reno N=55", Transport::kReno, 55},
           {"Vegas N=55", Transport::kVegas, 55}}) {
    const auto r = measure(t, n, duration);
    rows.push_back(
        {name, fmt(r.cut_correlation, 3), fmt(r.mean_flows_hit, 2)});
    if (name == "Reno N=20") reno20 = r;
    if (name == "Reno N=55") reno55 = r;
    if (name == "Vegas N=55") vegas55 = r;
  }
  print_table(
      std::cout,
      {"configuration", "window-cut correlation", "flows per drop event"},
      rows);

  std::cout << '\n';
  verdict(reno55.cut_correlation > reno20.cut_correlation,
          "Reno's stream coupling grows with congestion");
  verdict(reno55.cut_correlation > vegas55.cut_correlation,
          "Reno couples streams more than Vegas at the same load");
  verdict(reno55.mean_flows_hit > 1.5,
          "congestion events hit multiple Reno flows simultaneously");
  return 0;
}
