#include "src/topo/builder.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/core/experiment.hpp"
#include "src/run/result_store.hpp"
#include "src/topo/parser.hpp"
#include "src/topo/spec.hpp"
#include "src/transport/tcp_reno.hpp"
#include "src/transport/tcp_sink.hpp"
#include "src/transport/tcp_vegas.hpp"

namespace burst {
namespace {

Scenario small_scenario() {
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 10;
  sc.duration = 5.0;
  return sc;
}

TEST(TopoBuilder, ParkingLotRunsClean) {
  Scenario sc = small_scenario();
  const ExperimentResult r = run_experiment(make_tandem_spec(sc, 0.9));
  EXPECT_EQ(r.routing_errors, 0u);
  EXPECT_GT(r.delivered, 0u);
  EXPECT_GT(r.cov, 0.0);
  // Only the canonical dumbbell keeps the queue.gateway.* /
  // link.bottleneck.* names; every other graph reports the generic ones.
  EXPECT_NE(r.metrics.find("queue.measured.len_at_arrival"), nullptr);
  EXPECT_NE(r.metrics.find("link.measured.delivered"), nullptr);
  EXPECT_EQ(r.metrics.find("queue.gateway.len_at_arrival"), nullptr);
}

TEST(TopoBuilder, MultiGroupGraphRoutesEveryFlow) {
  // Two client groups with different edge delays through two bottlenecks
  // — a graph neither hard-coded topology can express.
  constexpr const char* kText = R"(
set clients 4
set duration 5
node near count $clients
node far count $clients
node gw1
node gw2
node server
link gw1 gw2 rate $bottleneck_bw delay $bottleneck_delay queue droptail
link gw2 server rate 30Mbps delay $bottleneck_delay queue droptail
link server gw2 rate 30Mbps delay $bottleneck_delay
link gw2 gw1 rate $bottleneck_bw delay $bottleneck_delay
link near gw1 rate $client_bw delay 5ms
link gw1 near rate $client_bw delay 5ms
link far gw1 rate $client_bw delay 40ms
link gw1 far rate $client_bw delay 40ms
flow near server
flow far server
measure gw1 gw2
)";
  TopoError err;
  const auto spec = parse_topo(kText, "multigroup", &err);
  ASSERT_TRUE(spec.has_value()) << err.render("inline");
  const ExperimentResult r = run_experiment(*spec);
  EXPECT_EQ(r.routing_errors, 0u);
  EXPECT_GT(r.delivered, 0u);
  // The analytic reference pools both groups' Poisson rates: 8 flows at
  // the scenario's 1/mean_interarrival each.
  EXPECT_DOUBLE_EQ(
      r.poisson_cov,
      poisson_aggregate_cov(8, 1.0 / spec->scenario.mean_interarrival,
                            spec->scenario.rtt_prop()));
  // Every one of the 8 senders got packets through (fairness is defined
  // and positive only if all flows delivered something).
  EXPECT_GT(r.fairness, 0.0);
  EXPECT_LE(r.fairness, 1.0);
}

TEST(TopoBuilder, ParsedDumbbellFileRunsAsThePaperDumbbell) {
  // The dumbbell written as a .topo file (examples/topologies/
  // dumbbell_n60.topo at 8 clients) runs exactly as the Scenario does:
  // same numbers, same event count, same historical metric names.
  constexpr const char* kText = R"(set clients 8
set duration 3
set warmup 1
node client count $clients
node gateway
node server
link gateway server rate $bottleneck_bw delay $bottleneck_delay queue gateway
link server gateway rate $bottleneck_bw delay $bottleneck_delay
link client gateway rate $client_bw delay $client_delay
link gateway client rate $client_bw delay $client_delay
flow client server
measure gateway server
)";
  TopoError err;
  const auto spec = parse_topo(kText, "dumbbell", &err);
  ASSERT_TRUE(spec.has_value()) << err.render("inline");
  ASSERT_TRUE(is_canonical_dumbbell(*spec));
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 8;
  sc.duration = 3.0;
  sc.warmup = 1.0;
  ASSERT_EQ(topo_key(*spec), scenario_key(sc));

  const ExperimentResult parsed = run_experiment(*spec);
  const ExperimentResult direct = run_experiment(sc);
  EXPECT_EQ(result_to_json(parsed), result_to_json(direct));
  EXPECT_EQ(parsed.metrics, direct.metrics);
  EXPECT_NE(parsed.metrics.find("queue.gateway.len_at_arrival"), nullptr);
  EXPECT_NE(parsed.metrics.find("link.bottleneck.delivered"), nullptr);
}

TEST(TopoBuilder, TandemReferenceAndNamesIgnoreTheShardCount) {
  // One run body at every shard count: a non-dumbbell graph keeps its
  // generic metric names and its pooled analytic reference on 2 LPs.
  const TopoSpec spec = make_tandem_spec(small_scenario(), 0.9);
  const ExperimentResult a = run_experiment(spec);
  ExperimentOptions lp2;
  lp2.lp_shards = 2;
  const ExperimentResult b = run_experiment(spec, lp2);
  ASSERT_EQ(b.lp_shards, 2);
  EXPECT_EQ(a.poisson_cov, b.poisson_cov);
  std::set<std::string> names_a, names_b;
  for (const MetricPoint& m : a.metrics.points) names_a.insert(m.name);
  for (const MetricPoint& m : b.metrics.points) {
    if (m.name.rfind("parallel.", 0) != 0) names_b.insert(m.name);
  }
  EXPECT_EQ(names_a, names_b);
  EXPECT_EQ(names_b.count("queue.measured.len_at_arrival"), 1u);
  EXPECT_EQ(b.delivered, a.delivered);
  EXPECT_EQ(b.sim_events, a.sim_events);
}

TEST(TopoBuilder, MeasuredLinkFollowsTheMeasureStatement) {
  Scenario sc = small_scenario();
  const TopoSpec spec = make_tandem_spec(sc, 0.9);
  Simulator sim(sc.seed);
  TopoNet net(sim, spec);
  // measure_link = 0 is the first bottleneck statement.
  EXPECT_EQ(&net.measured_link(), &net.link(0));
  EXPECT_EQ(&net.measured_queue(), &net.link(0).queue());
}

// Before a run no TCP sender holds a send-time slot, so a built network's
// agent bytes are its sender and sink objects alone: the same for any
// advertised window, 1e19 included, which once sized every ring up front.
TEST(TopoBuilder, BuiltAgentBytesAreTheAgentObjects) {
  for (const Transport t : {Transport::kReno, Transport::kVegas}) {
    Scenario sc = small_scenario();
    sc.transport = t;
    const std::size_t sender =
        t == Transport::kReno ? sizeof(TcpReno) : sizeof(TcpVegas);
    const std::size_t flows = static_cast<std::size_t>(sc.num_clients);
    for (const double window : {20.0, 1e12, 1e19}) {
      sc.advertised_window = window;
      Simulator sim(sc.seed);
      const TopoNet net(sim, make_dumbbell_spec(sc));
      ASSERT_EQ(net.tcp_senders().size(), flows);
      EXPECT_EQ(net.arena_bytes_reserved(), flows * (sender + sizeof(TcpSink)))
          << "window " << window;
    }
  }
}

}  // namespace
}  // namespace burst
