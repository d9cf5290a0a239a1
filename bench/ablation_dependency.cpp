// Ablation: quantify the paper's central mechanism — "TCP Reno introduces
// a high level of dependency between TCP streams" — directly, as the mean
// pairwise correlation of the flows' congestion-window time series and as
// the number of flows hit per gateway drop event.
#include <iostream>

#include "bench/common.hpp"
#include "src/stats/correlation.hpp"

namespace {

using namespace burst;

struct DependencyResult {
  // Mean pairwise Pearson of per-0.1s "this flow cut its window" indicator
  // series. Correlating decrease *events* (not window levels) removes the
  // common slow-start trend that would otherwise dominate.
  double cut_correlation = 0.0;
  double mean_flows_hit = 0.0;  // per gateway drop event
};

// A drop more than this long after the previous one opens the next drop
// event.
constexpr Time kDropEventGap = 0.002;

DependencyResult measure(Transport transport, int n, Time duration) {
  Scenario sc = bench::paper_base();
  sc.transport = transport;
  sc.num_clients = n;
  sc.duration = duration;

  TraceSink sink;
  ExperimentOptions opts;
  opts.trace = &sink;
  run_experiment(sc, opts);

  // Per-flow indicator series: did the window decrease inside this 0.1 s
  // bin? Synchronized congestion decisions show up as correlated spikes.
  std::vector<std::vector<double>> cuts;
  cuts.reserve(static_cast<std::size_t>(n));
  for (const TraceSeries& t :
       bench::cwnd_series_or_exit(sink, bench::all_clients(n))) {
    cuts.push_back(decrease_indicator(t, 0.1, 1.0, sc.duration));
  }

  DependencyResult out;
  out.cut_correlation = mean_pairwise_correlation(cuts);
  // Every drop event counts, the one still open at the end of the run too.
  const std::vector<DropCluster> events = sink.drop_clusters(
      sink.register_site("queue:gateway"), kDropEventGap);
  double flows_hit = 0.0;
  for (const DropCluster& e : events) flows_hit += e.flows;
  if (!events.empty()) {
    out.mean_flows_hit = flows_hit / static_cast<double>(events.size());
  }
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
