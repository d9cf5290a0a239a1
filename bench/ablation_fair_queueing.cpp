// Ablation: per-flow scheduling at the gateway. The paper's introduction
// asks "how traffic should be scheduled"; its analysis blames the shared
// FIFO tail for coupling the streams' fates. Two experiments:
//
//  1. Homogeneous Poisson clients (the paper's workload): with every
//     per-flow queue ~1 packet deep, DRR and FIFO behave alike — the
//     coupling there comes from the shared *capacity*, not the scheduler.
//  2. One greedy bulk flow among Poisson clients: FIFO lets the hog fill
//     the shared buffer and push drops onto everyone; DRR's longest-queue
//     drop confines the loss to the hog and protects the light flows.
#include <iostream>
#include <memory>
#include <vector>

#include "bench/common.hpp"
#include "src/app/bulk_source.hpp"
#include "src/topo/builder.hpp"
#include "src/topo/spec.hpp"

namespace {

using namespace burst;

struct HogResult {
  double light_loss_frac = 0.0;  // aggregate loss of the Poisson flows
  double hog_loss_frac = 0.0;    // loss of the greedy flow
  double hog_share = 0.0;        // hog's share of delivered packets
  std::uint64_t delivered = 0;
};

HogResult run_hog(GatewayQueue q, Time duration) {
  Scenario sc = bench::paper_base();
  sc.transport = Transport::kReno;
  sc.gateway = q;
  sc.num_clients = 42;
  sc.duration = duration;

  Simulator sim(sc.seed);
  TopoNet net(sim, make_dumbbell_spec(sc));
  // Per-flow data arrivals and drops at the gateway.
  std::vector<std::uint64_t> arrivals(static_cast<std::size_t>(sc.num_clients));
  std::vector<std::uint64_t> drops(arrivals.size());
  const auto count_data = [](std::vector<std::uint64_t>& per_flow) {
    return [&per_flow](const Packet& p, Time) {
      if (p.type == PacketType::kData) {
        ++per_flow[static_cast<std::size_t>(p.flow)];
      }
    };
  };
  net.measured_queue().taps().add_arrival_listener(count_data(arrivals));
  net.measured_queue().taps().add_drop_listener(count_data(drops));
  // Client 0 becomes a greedy bulk transfer; the rest stay Poisson.
  BulkSource hog(sim, net.sender(0), 0);
  hog.start();
  for (int i = 1; i < sc.num_clients; ++i) net.source(i).start();
  sim.run(sc.duration);

  HogResult out;
  out.hog_loss_frac = arrivals[0] == 0
                          ? 0.0
                          : static_cast<double>(drops[0]) /
                                static_cast<double>(arrivals[0]);
  std::uint64_t light_arr = 0, light_drop = 0;
  for (std::size_t flow = 1; flow < arrivals.size(); ++flow) {
    light_arr += arrivals[flow];
    light_drop += drops[flow];
  }
  out.light_loss_frac =
      light_arr == 0 ? 0.0
                     : static_cast<double>(light_drop) /
                           static_cast<double>(light_arr);
  out.delivered = net.total_delivered();
  out.hog_share = static_cast<double>(net.tcp_sink(0)->rcv_nxt()) /
                  static_cast<double>(std::max<std::uint64_t>(1, out.delivered));
  return out;
}

}  // namespace

int main() {
  using namespace burst;
  using namespace burst::bench;

  banner("Ablation — DRR fair queueing vs FIFO at the gateway",
         "per-flow scheduling isolates flows: a greedy hog cannot push its "
         "losses (or steal capacity) from the Poisson clients");

  // Part 1: homogeneous workload (the paper's own scenario).
  std::cout << "homogeneous Poisson clients (N=42):\n";
  std::vector<std::vector<std::string>> rows;
  std::uint64_t fifo_thr = 0, drr_thr = 0;
  for (GatewayQueue q : {GatewayQueue::kDropTail, GatewayQueue::kDrr}) {
    Scenario sc = paper_base();
    sc.num_clients = 42;
    sc.transport = Transport::kReno;
    sc.gateway = q;
    const auto r = run_experiment(sc);
    rows.push_back({to_string(q), std::to_string(r.delivered),
                    fmt(r.loss_pct, 2), std::to_string(r.timeouts),
                    fmt(r.cov, 4), fmt(r.fairness, 4)});
    (q == GatewayQueue::kDropTail ? fifo_thr : drr_thr) = r.delivered;
  }
  print_table(std::cout,
              {"gateway", "delivered", "loss%", "timeouts", "cov", "fairness"},
              rows);

  // Part 2: one greedy hog among the Poisson clients.
  std::cout << "\none greedy bulk flow + 41 Poisson clients:\n";
  const Time duration = paper_base().duration;
  const HogResult fifo = run_hog(GatewayQueue::kDropTail, duration);
  const HogResult drr = run_hog(GatewayQueue::kDrr, duration);
  print_table(
      std::cout,
      {"gateway", "light-flow loss", "hog loss", "hog share of goodput"},
      {
          {"FIFO", fmt(100 * fifo.light_loss_frac, 2) + " %",
           fmt(100 * fifo.hog_loss_frac, 2) + " %",
           fmt(100 * fifo.hog_share, 1) + " %"},
          {"DRR", fmt(100 * drr.light_loss_frac, 2) + " %",
           fmt(100 * drr.hog_loss_frac, 2) + " %",
           fmt(100 * drr.hog_share, 1) + " %"},
      });

  std::cout << '\n';
  verdict(drr_thr >= fifo_thr * 85 / 100,
          "with homogeneous flows, DRR costs little goodput");
  verdict(fifo.hog_loss_frac < fifo.light_loss_frac,
          "FIFO *subsidizes* the greedy flow: its loss rate sits below the "
          "light flows' (shared-tail coupling at work)");
  verdict(drr.hog_loss_frac > drr.light_loss_frac,
          "DRR reverses the subsidy: the hog bears its own losses "
          "(longest-queue drop isolation)");
  verdict(drr.hog_share <= fifo.hog_share,
          "DRR caps the hog's share of the bottleneck");
  return 0;
}
