// Traffic characterization: reproduce the paper's methodological argument
// on one page. We aggregate (1) Poisson sources, (2) heavy-tailed Pareto
// on/off sources, and (3) Poisson sources *behind TCP Reno*, then look at
// each aggregate through two lenses: the Hurst parameter (the self-similar
// literature's tool) and the c.o.v. at the RTT time scale (the paper's).
//
// The punchline: TCP-induced burstiness is invisible to Hurst-style
// coarse-scale analysis but dominates at the millisecond scales where
// statistical multiplexing actually operates.
#include <iostream>
#include <memory>

#include "src/app/pareto_on_off_source.hpp"
#include "src/core/report.hpp"
#include "src/stats/binned_counter.hpp"
#include "src/stats/correlation.hpp"
#include "src/stats/hurst.hpp"
#include "src/stats/time_series.hpp"
#include "src/topo/builder.hpp"
#include "src/topo/spec.hpp"

namespace {

using namespace burst;

struct Characterization {
  double cov_rtt;    // burstiness at one RTT (the multiplexing scale)
  double cov_coarse; // burstiness at ~5 s aggregation
  double hurst;      // variance-time estimate
  double acf1;       // lag-1 autocorrelation of per-RTT counts
  double acf10;      // lag-10 (~one second)
};

Characterization characterize(Transport transport, bool heavy_tailed) {
  Scenario sc = Scenario::paper_default();
  sc.transport = transport;
  sc.num_clients = 40;
  sc.duration = 120.0;

  Simulator sim(7);
  TopoNet net(sim, make_dumbbell_spec(sc));
  BinnedCounter bins(sc.rtt_prop(), sc.warmup);
  net.measured_queue().taps().add_arrival_listener([&](const Packet& p, Time) {
    if (p.type == PacketType::kData) bins.record(sim.now());
  });

  std::vector<std::unique_ptr<ParetoOnOffSource>> pareto;
  if (heavy_tailed) {
    ParetoOnOffConfig cfg;
    cfg.shape = 1.4;       // infinite variance: the self-similar regime
    cfg.mean_on = 0.5;
    cfg.mean_off = 0.5;
    cfg.on_rate_pps = 200;  // same 100 pkt/s average as the Poisson load
    for (int i = 0; i < sc.num_clients; ++i) {
      pareto.push_back(std::make_unique<ParetoOnOffSource>(
          sim, net.sender(i), cfg, sim.rng().fork()));
      pareto.back()->start();
    }
  } else {
    net.start_sources();
  }
  sim.run(sc.duration);

  // complete_bins: drop the partial final bin so the coarse-scale c.o.v.
  // is not inflated by a truncated tail sample.
  const auto xs = to_doubles(bins.complete_bins(sc.duration));
  Characterization out{};
  out.cov_rtt = series_stats(xs).cov();
  out.cov_coarse = series_stats(aggregate_series(xs, 64)).cov();
  out.hurst = hurst_variance_time(xs, {1, 2, 4, 8, 16, 32, 64});
  out.acf1 = autocorrelation(xs, 1);
  out.acf10 = autocorrelation(xs, 10);
  return out;
}

}  // namespace

int main() {
  using namespace burst;

  std::cout << "Characterizing 40-source aggregates at the gateway "
            << "(bins = one 80 ms RTT):\n\n";

  const auto poisson = characterize(Transport::kUdp, false);
  const auto pareto = characterize(Transport::kUdp, true);
  const auto tcp = characterize(Transport::kReno, false);

  print_table(
      std::cout,
      {"aggregate", "cov @ RTT", "cov @ 5s", "Hurst", "acf(1)", "acf(10)"},
      {
          {"Poisson/UDP (smooth reference)", fmt(poisson.cov_rtt, 3),
           fmt(poisson.cov_coarse, 3), fmt(poisson.hurst, 2),
           fmt(poisson.acf1, 2), fmt(poisson.acf10, 2)},
          {"Pareto on-off/UDP (heavy tails)", fmt(pareto.cov_rtt, 3),
           fmt(pareto.cov_coarse, 3), fmt(pareto.hurst, 2),
           fmt(pareto.acf1, 2), fmt(pareto.acf10, 2)},
          {"Poisson/TCP Reno (the paper)", fmt(tcp.cov_rtt, 3),
           fmt(tcp.cov_coarse, 3), fmt(tcp.hurst, 2), fmt(tcp.acf1, 2),
           fmt(tcp.acf10, 2)},
      });

  std::cout
      << "\nTwo different kinds of burstiness:\n"
      << "  * Heavy tails raise the Hurst parameter AND coarse-scale cov —\n"
      << "    burstiness that survives aggregation (self-similarity).\n"
      << "  * TCP modulation roughly doubles cov at the RTT scale while\n"
      << "    leaving Hurst near 0.5 — invisible to self-similar analysis\n"
      << "    yet exactly what degrades statistical multiplexing.\n";
  return 0;
}
