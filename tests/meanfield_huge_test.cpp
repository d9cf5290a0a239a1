// Slow-suite huge-N checks for the mean-field mode (ctest -L slow).
//
// At N=10^4 the dumbbell must still conserve packets exactly (every
// queue's arrivals split into drops + departures + still-queued) and
// reproduce bit-identical results under the same seed. The N=10^5 smoke
// run pins the per-flow memory story: the TCP agents' bytes/flow stay
// under the fig_meanfield budget and process RSS stays bounded.
#include <gtest/gtest.h>

#include <cstdint>

#ifdef __linux__
#include <fstream>
#include <sstream>
#include <string>
#endif

#include "src/core/scenario.hpp"
#include "src/net/link.hpp"
#include "src/net/queue.hpp"
#include "src/sim/simulator.hpp"
#include "src/topo/builder.hpp"
#include "src/topo/spec.hpp"

namespace burst {
namespace {

Scenario huge_scenario(int clients, Time duration) {
  Scenario sc = Scenario::paper_default();
  sc.transport = Transport::kReno;
  sc.gateway = GatewayQueue::kRed;
  sc.meanfield_base = 60;
  sc.num_clients = clients;
  sc.duration = duration;
  return sc;
}

struct RunResult {
  std::uint64_t events = 0;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
};

RunResult run_and_check_conservation(const Scenario& sc) {
  Simulator sim(sc.seed);
  TopoNet net(sim, make_dumbbell_spec(sc));
  net.start_sources();
  sim.run(sc.duration);

  EXPECT_EQ(net.routing_errors(), 0u);

  // Per-queue conservation: every packet offered to a queue is either
  // dropped, handed to the transmitter, or still sitting in the buffer.
  // Statements: 0 = bottleneck, 1 = reverse, 2 = up links, 3 = down.
  std::uint64_t up_departures = 0;
  for (int statement : {0, 1, 2, 3}) {
    const int members = statement >= 2 ? sc.num_clients : 1;
    for (int m = 0; m < members; ++m) {
      const Queue& q = net.link(statement, m).queue();
      const QueueStats& s = q.stats();
      EXPECT_EQ(s.arrivals, s.drops + s.departures + q.len())
          << "statement " << statement << " member " << m;
      if (statement == 2) up_departures += s.departures;
    }
  }

  // Path conservation, as inequalities because packets can be mid-wire:
  // data flows client -> up link -> gateway (bottleneck) -> server sink.
  const QueueStats& btl = net.measured_queue().stats();
  EXPECT_LE(btl.arrivals, up_departures);
  EXPECT_LE(net.total_delivered(), btl.departures);
  EXPECT_LE(net.total_delivered(), net.total_generated());
  EXPECT_GT(net.total_delivered(), 0u);

  RunResult r;
  r.events = sim.events_run();
  r.generated = net.total_generated();
  r.delivered = net.total_delivered();
  return r;
}

TEST(MeanfieldHuge, ConservationAndSeedStabilityAt10k) {
  const Scenario sc = huge_scenario(10000, 2.0);
  const RunResult a = run_and_check_conservation(sc);
  const RunResult b = run_and_check_conservation(sc);
  // Same seed, same scenario: the runs must be bit-identical.
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
}

#ifdef __linux__
std::size_t vm_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream in(line.substr(6));
      std::size_t kib = 0;
      in >> kib;
      return kib;
    }
  }
  return 0;
}
#endif

TEST(MeanfieldHuge, SmokeAt100kStaysWithinMemoryBudget) {
  const int clients = 100000;
  const Scenario sc = huge_scenario(clients, 0.5);

  // Same per-flow ceiling as fig_meanfield, read after the run: the
  // send-time rings grow with the windows the flows actually sent.
  constexpr std::size_t kBudgetPerFlowBytes = 2048;

  Simulator sim(sc.seed);
  TopoNet net(sim, make_dumbbell_spec(sc));
  net.start_sources();
  sim.run(sc.duration);
  EXPECT_GT(net.total_delivered(), 0u);
  EXPECT_EQ(net.routing_errors(), 0u);

  const double bytes_per_flow =
      static_cast<double>(net.arena_bytes_reserved()) / clients;
  EXPECT_GT(bytes_per_flow, 0.0);
  EXPECT_LE(bytes_per_flow, static_cast<double>(kBudgetPerFlowBytes));

#ifdef __linux__
  // Whole-process ceiling (agents + nodes + links + scheduler). The run
  // measures ~hundreds of MiB; 2 GiB flags an order-of-magnitude leak
  // without being machine-sensitive.
  const std::size_t rss = vm_rss_kib();
  ASSERT_GT(rss, 0u);
  EXPECT_LT(rss, 2u * 1024u * 1024u) << "VmRSS " << rss << " KiB";
#endif
}

}  // namespace
}  // namespace burst
