// Ablation: the self-similarity contrast. The literature the paper argues
// against ([11],[14],[19]) derives burstiness from heavy-tailed sources.
// Here we aggregate (a) Poisson and (b) Pareto-on/off sources over UDP and
// show: the heavy-tailed aggregate stays bursty across time scales
// (elevated Hurst), while the Poisson aggregate smooths out — and then
// show TCP Reno re-introducing burstiness into the *smooth* workload,
// which is the paper's central point.
#include <iostream>
#include <memory>

#include "bench/common.hpp"
#include "src/app/pareto_on_off_source.hpp"
#include "src/stats/binned_counter.hpp"
#include "src/stats/hurst.hpp"
#include "src/stats/time_series.hpp"
#include "src/topo/builder.hpp"
#include "src/topo/spec.hpp"

namespace {

using namespace burst;

struct AggregateResult {
  std::vector<double> covs;  // across aggregation scales
  double hurst_vt = 0.5;
  double hurst_rs = 0.5;
};

const std::vector<int> kScales{1, 4, 16, 64};

/// Bins gateway arrivals of a dumbbell run, optionally swapping the
/// Poisson sources for Pareto on/off ones.
AggregateResult run_aggregate(Transport transport, bool pareto_sources,
                              double duration) {
  Scenario sc = bench::paper_base();
  sc.transport = transport;
  sc.num_clients = 40;
  sc.duration = duration;

  Simulator sim(sc.seed);
  TopoNet net(sim, make_dumbbell_spec(sc));
  BinnedCounter bins(sc.rtt_prop(), sc.warmup);
  net.measured_queue().taps().add_arrival_listener([&](const Packet& p, Time) {
    if (p.type == PacketType::kData) bins.record(sim.now());
  });

  std::vector<std::unique_ptr<ParetoOnOffSource>> pareto;
  if (pareto_sources) {
    // Same 100 pkt/s average rate as the Poisson workload, but with
    // heavy-tailed (alpha=1.4) on/off sojourns.
    ParetoOnOffConfig cfg;
    cfg.shape = 1.4;
    cfg.mean_on = 0.5;
    cfg.mean_off = 0.5;
    cfg.on_rate_pps = 200.0;
    for (int i = 0; i < sc.num_clients; ++i) {
      pareto.push_back(std::make_unique<ParetoOnOffSource>(
          sim, net.sender(i), cfg, sim.rng().fork()));
      pareto.back()->start();
    }
  } else {
    net.start_sources();
  }
  sim.run(sc.duration);

  AggregateResult out;
  // complete_bins: the horizon rarely lands on a bin boundary, and a
  // truncated final bin would bias every scale's c.o.v. upward.
  const auto xs = to_doubles(bins.complete_bins(sc.duration));
  out.covs = cov_across_scales(xs, kScales);
  out.hurst_vt = hurst_variance_time(xs, {1, 2, 4, 8, 16, 32, 64});
  out.hurst_rs = hurst_rescaled_range(xs, {16, 32, 64, 128, 256});
  return out;
}

}  // namespace

int main() {
  using namespace burst;
  using namespace burst::bench;

  banner("Ablation — self-similarity contrast (Poisson vs heavy-tailed)",
         "heavy-tailed sources stay bursty across time scales (high "
         "Hurst); Poisson smooths out; TCP makes even Poisson bursty");

  // Longer runs: Hurst estimation needs many bins.
  const double duration = 120.0;
  const auto udp_poisson = run_aggregate(Transport::kUdp, false, duration);
  const auto udp_pareto = run_aggregate(Transport::kUdp, true, duration);
  const auto reno_poisson = run_aggregate(Transport::kReno, false, duration);

  std::vector<std::vector<std::string>> rows;
  auto add_row = [&](const std::string& name, const AggregateResult& r) {
    std::vector<std::string> row{name};
    for (double c : r.covs) row.push_back(fmt(c, 4));
    row.push_back(fmt(r.hurst_vt, 3));
    row.push_back(fmt(r.hurst_rs, 3));
    rows.push_back(std::move(row));
  };
  add_row("UDP/Poisson", udp_poisson);
  add_row("UDP/Pareto", udp_pareto);
  add_row("Reno/Poisson", reno_poisson);

  print_table(std::cout,
              {"workload", "cov@1", "cov@4", "cov@16", "cov@64", "H(var-t)",
               "H(R/S)"},
              rows);

  std::cout << '\n';
  verdict(udp_pareto.hurst_vt > udp_poisson.hurst_vt + 0.1,
          "heavy-tailed aggregate shows elevated Hurst vs Poisson");
  // Poisson smooths as sqrt(scale): cov@64 ~ cov@1/8.
  verdict(udp_poisson.covs[0] / udp_poisson.covs[3] > 5.0,
          "Poisson aggregate smooths out under time-scale aggregation");
  verdict(udp_pareto.covs[3] / udp_poisson.covs[3] > 2.0,
          "heavy-tailed aggregate stays bursty at coarse time scales");
  verdict(reno_poisson.covs[0] > 1.3 * udp_poisson.covs[0],
          "TCP Reno re-introduces burstiness into the smooth Poisson "
          "workload (the paper's thesis)");
  return 0;
}
