// topo_build: cost of the declarative topology pipeline, per stage.
//
// The builder sits on the experiment setup path, so campaigns pay it
// once per point — this bench answers "how much does a .topo scenario
// cost over building from a Scenario?" for the dumbbell at N=60:
//
//   parse_n60        parse + validate the dumbbell text (no build)
//   fingerprint_n60  canonical rendering + 128-bit key
//   build_scenario   TopoNet(sim, make_dumbbell_spec(sc)): the spec
//                    generated from a Scenario, then built
//   build_toponet    TopoNet(sim, spec) from the parsed spec
//
// All stages are deterministic; wall time is best-of 5 over `iters`
// repetitions. Output is a table, not a gated JSON — setup cost is
// dwarfed by simulation (~1e6 events per run) and only needs eyeballs.
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench/common.hpp"
#include "src/sim/simulator.hpp"
#include "src/topo/builder.hpp"
#include "src/topo/parser.hpp"
#include "src/topo/spec.hpp"

namespace {

using namespace burst;
using namespace burst::bench;

constexpr const char* kDumbbellN60 = R"(scenario dumbbell_n60
set clients 60
node client count $clients
node gateway
node server
link gateway server rate $bottleneck_bw delay $bottleneck_delay queue droptail
link server gateway rate $bottleneck_bw delay $bottleneck_delay
link client gateway rate $client_bw delay $client_delay
link gateway client rate $client_bw delay $client_delay
flow client server
measure gateway server
)";

}  // namespace

int main(int argc, char** argv) {
  int iters = 200;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") iters = 20;
  }

  TopoError err;
  const auto spec = parse_topo(kDumbbellN60, "dumbbell_n60", &err);
  if (!spec) {
    std::cerr << "topo_build: " << err.render("<builtin>") << "\n";
    return 1;
  }
  Scenario sc = spec->scenario;

  // Best-of-5 seconds per call of fn, over `iters` calls per repetition.
  const auto per_call = [iters](auto&& fn) {
    return best_of(5, [&] {
      const double t0 = now_s();
      for (int i = 0; i < iters; ++i) fn();
      return (now_s() - t0) / iters;
    });
  };
  const double parse_s = per_call([&] {
    TopoError e;
    auto s = parse_topo(kDumbbellN60, "dumbbell_n60", &e);
    if (!s) std::abort();
  });
  const double key_s = per_call([&] { (void)topo_key(*spec); });
  const double scenario_s = per_call([&] {
    Simulator sim(sc.seed);
    TopoNet net(sim, make_dumbbell_spec(sc));
    (void)net;
  });
  const double topo_s = per_call([&] {
    Simulator sim(sc.seed);
    TopoNet net(sim, *spec);
    (void)net;
  });

  print_table(std::cout, {"stage", "us per call"},
              {
                  {"parse_n60", fmt(parse_s * 1e6, 1)},
                  {"fingerprint_n60", fmt(key_s * 1e6, 1)},
                  {"build_scenario", fmt(scenario_s * 1e6, 1)},
                  {"build_toponet", fmt(topo_s * 1e6, 1)},
              });
  return 0;
}
