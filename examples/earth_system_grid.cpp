// Earth-System-Grid scenario: the distributed-computing workload that
// motivates the paper's introduction. A few sites stage bulk climate
// datasets across a shared wide-area bottleneck while many interactive
// clients generate Poisson control traffic. We ask the paper's question
// end to end: which TCP should the grid run, and what does the choice do
// to transfer times, fairness and the burstiness the gateway sees?
#include <iostream>
#include <memory>
#include <tuple>
#include <vector>

#include "src/app/bulk_source.hpp"
#include "src/core/report.hpp"
#include "src/stats/binned_counter.hpp"
#include "src/stats/fairness.hpp"
#include "src/topo/builder.hpp"
#include "src/topo/spec.hpp"

namespace {

using namespace burst;

struct GridResult {
  double bulk_goodput_pps = 0.0;   // aggregate bulk transfer rate
  double interactive_loss = 0.0;   // loss experienced at the gateway
  double fairness = 1.0;           // across the bulk transfers
  double cov = 0.0;                // gateway burstiness
  std::uint64_t timeouts = 0;
};

GridResult run_grid(Transport transport) {
  // 8 bulk "data staging" flows + 24 interactive clients.
  Scenario sc = Scenario::paper_default();
  sc.transport = transport;
  sc.num_clients = 32;
  sc.duration = 30.0;

  Simulator sim(42);
  TopoNet net(sim, make_dumbbell_spec(sc));

  BinnedCounter bins(sc.rtt_prop(), sc.warmup);
  net.measured_queue().taps().add_arrival_listener([&](const Packet& p, Time) {
    if (p.type == PacketType::kData) bins.record(sim.now());
  });

  // Clients 0..7 become bulk transfers (greedy); 8..31 stay Poisson.
  std::vector<std::unique_ptr<BulkSource>> bulk;
  for (int i = 0; i < 8; ++i) {
    bulk.push_back(std::make_unique<BulkSource>(sim, net.sender(i), 0));
    bulk.back()->start();
  }
  for (int i = 8; i < 32; ++i) net.source(i).start();
  sim.run(sc.duration);

  GridResult out;
  std::vector<double> bulk_delivered;
  double bulk_total = 0.0;
  for (int i = 0; i < 8; ++i) {
    const double d = static_cast<double>(net.tcp_sink(i)->rcv_nxt());
    bulk_delivered.push_back(d);
    bulk_total += d;
  }
  out.bulk_goodput_pps = bulk_total / sc.duration;
  out.fairness = jain_fairness(bulk_delivered);
  out.interactive_loss = 100.0 * net.measured_queue().stats().loss_fraction();
  out.cov = bins.stats_until(sc.duration).cov();
  for (int i = 0; i < 32; ++i) out.timeouts += net.tcp_sender(i)->stats().timeouts;
  return out;
}

}  // namespace

int main() {
  using namespace burst;

  std::cout
      << "Earth System Grid scenario: 8 bulk dataset transfers + 24\n"
      << "interactive Poisson clients share a 32 Mbps wide-area link.\n\n";

  std::vector<std::vector<std::string>> rows;
  for (const auto& [name, t] :
       std::vector<std::pair<std::string, Transport>>{
           {"Tahoe", Transport::kTahoe},
           {"Reno", Transport::kReno},
           {"NewReno", Transport::kNewReno},
           {"Vegas", Transport::kVegas}}) {
    const GridResult r = run_grid(t);
    rows.push_back({name, fmt(r.bulk_goodput_pps, 0), fmt(r.fairness, 3),
                    fmt(r.interactive_loss, 2), fmt(r.cov, 3),
                    std::to_string(r.timeouts)});
  }
  print_table(std::cout,
              {"transport", "bulk pkt/s", "bulk fairness", "gw loss%",
               "gw cov", "timeouts"},
              rows);

  std::cout << "\nReading the table: Vegas keeps the gateway smooth (low\n"
            << "c.o.v.) and nearly loss-free while moving comparable bulk\n"
            << "data — the paper's conclusion for distributed computing\n"
            << "systems. Reno-family stacks pay for their probing with\n"
            << "drops and burstiness that statistical multiplexing then\n"
            << "has to absorb.\n";
  return 0;
}
