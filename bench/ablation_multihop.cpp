// Ablation: multi-hop (tandem) bottlenecks. What does the traffic look
// like after an upstream bottleneck has already shaped it? A link's
// departure process is paced at its service rate, so the second gateway
// sees smoother arrivals than the first — for UDP *and* for TCP. The
// TCP-induced burstiness the paper measures is therefore an edge
// phenomenon: it hits the first shared queue hardest.
#include <iostream>

#include "bench/common.hpp"
#include "src/stats/binned_counter.hpp"
#include "src/topo/builder.hpp"
#include "src/topo/spec.hpp"

namespace {

using namespace burst;

struct HopCovs {
  double hop1 = 0.0;
  double hop2 = 0.0;
  double poisson = 0.0;
  double loss1 = 0.0;
  double loss2 = 0.0;
};

HopCovs run_tandem(Transport t, int n) {
  Scenario sc = bench::paper_base();
  sc.transport = t;
  sc.num_clients = n;

  Simulator sim(sc.seed);
  // Link statement 0 is the first hop (gw1 -> gw2), 1 the second.
  TopoNet net(sim, make_tandem_spec(sc, /*second_hop_ratio=*/0.9));
  Queue& hop1 = net.link(0).queue();
  Queue& hop2 = net.link(1).queue();
  BinnedCounter bins1(sc.rtt_prop(), sc.warmup);
  BinnedCounter bins2(sc.rtt_prop(), sc.warmup);
  hop1.taps().add_arrival_listener([&](const Packet& p, Time now) {
    if (p.type == PacketType::kData) bins1.record(now);
  });
  hop2.taps().add_arrival_listener([&](const Packet& p, Time now) {
    if (p.type == PacketType::kData) bins2.record(now);
  });
  net.start_sources();
  sim.run(sc.duration);

  HopCovs out;
  out.hop1 = bins1.stats_until(sc.duration).cov();
  out.hop2 = bins2.stats_until(sc.duration).cov();
  out.poisson =
      poisson_aggregate_cov(n, 1.0 / sc.mean_interarrival, sc.rtt_prop());
  out.loss1 = 100.0 * hop1.stats().loss_fraction();
  out.loss2 = 100.0 * hop2.stats().loss_fraction();
  return out;
}

}  // namespace

int main() {
  using namespace burst;
  using namespace burst::bench;

  banner("Ablation — tandem bottlenecks (multi-hop)",
         "does an intermediate gateway launder TCP's burstiness? "
         "Uncontrolled overload (UDP) gets paced away by the first hop; "
         "TCP keeps upstream hops unsaturated, so its modulation travels "
         "end to end");

  std::vector<std::vector<std::string>> rows;
  HopCovs udp{}, reno{};
  const int n = 45;
  for (Transport t : {Transport::kUdp, Transport::kReno, Transport::kVegas}) {
    const auto r = run_tandem(t, n);
    rows.push_back({to_string(t), fmt(r.poisson, 4), fmt(r.hop1, 4),
                    fmt(r.hop2, 4), fmt(r.loss1, 2), fmt(r.loss2, 2)});
    if (t == Transport::kUdp) udp = r;
    if (t == Transport::kReno) reno = r;
  }
  print_table(std::cout,
              {"transport", "Poisson", "cov hop1", "cov hop2", "loss1%",
               "loss2%"},
              rows);

  std::cout << '\n';
  verdict(udp.hop2 < 0.2 * udp.hop1,
          "overloaded UDP is paced into near-CBR by the first hop "
          "(serialization smoothing)");
  verdict(reno.hop2 > 0.8 * reno.hop1,
          "Reno's burstiness survives the first hop almost intact: "
          "congestion control keeps upstream queues empty, so nothing "
          "paces the aggregate before the true bottleneck");
  verdict(reno.hop1 > 1.5 * udp.hop2 && reno.hop1 > 1.5 * reno.poisson,
          "TCP-modulated traffic is far burstier than either the paced "
          "UDP stream or the Poisson reference");
  verdict(reno.loss2 > 0.0,
          "the narrower second hop still takes losses (it is the "
          "long-term rate bottleneck)");
  return 0;
}
