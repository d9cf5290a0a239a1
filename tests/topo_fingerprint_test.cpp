// Golden fingerprints for every shipped .topo file. A change here means
// parsed topologies (and therefore every campaign cache keyed on them)
// no longer mean what they used to — bump kTopoKeyVersion if that is
// intentional, and expect old cache entries to be re-simulated.
#include <gtest/gtest.h>

#include <string>

#include "src/topo/parser.hpp"
#include "src/topo/spec.hpp"

#ifndef BURST_TOPO_EXAMPLES_DIR
#define BURST_TOPO_EXAMPLES_DIR "examples/topologies"
#endif

namespace burst {
namespace {

TopoSpec load_example(const std::string& file) {
  TopoError err;
  const std::string path = std::string(BURST_TOPO_EXAMPLES_DIR) + "/" + file;
  auto spec = load_topo_file(path, &err);
  EXPECT_TRUE(spec.has_value()) << err.render(path);
  return spec ? *spec : TopoSpec{};
}

TEST(TopoFingerprint, DumbbellN60IsPinned) {
  EXPECT_EQ(topo_key(load_example("dumbbell_n60.topo")).hex(),
            "3e6dcd6af29cefe270c9126328cdfa67");
}

TEST(TopoFingerprint, ParkingLotN30IsPinned) {
  EXPECT_EQ(topo_key(load_example("parking_lot_n30.topo")).hex(),
            "97eea2618359cb9898b3e104ece66c23");
}

TEST(TopoFingerprint, MultiBottleneckRttIsPinned) {
  EXPECT_EQ(topo_key(load_example("multi_bottleneck_rtt.topo")).hex(),
            "3485a995b490a234c020df0e41c5fe81");
}

TEST(TopoFingerprint, DumbbellFileIsCanonicallyTheHardCodedDumbbell) {
  // The core identity contract: the shipped dumbbell file IS the paper
  // dumbbell — same canonical graph, therefore the *plain* scenario key,
  // therefore interchangeable with `burstsim --clients=60` in any cache.
  const TopoSpec spec = load_example("dumbbell_n60.topo");
  ASSERT_TRUE(is_canonical_dumbbell(spec));
  Scenario sc = Scenario::paper_default();
  sc.num_clients = 60;
  EXPECT_EQ(spec.canonical(), make_dumbbell_spec(sc).canonical());
  EXPECT_EQ(topo_key(spec), scenario_key(sc));
}

TEST(TopoFingerprint, NonDumbbellFilesCarryTheTopologySalt) {
  // A non-dumbbell graph must never collide with a plain scenario key:
  // its key hashes the topo_v-salted canonical rendering.
  const TopoSpec spec = load_example("parking_lot_n30.topo");
  EXPECT_FALSE(is_canonical_dumbbell(spec));
  EXPECT_NE(topo_key(spec), scenario_key(spec.scenario));
  EXPECT_EQ(topo_key(spec),
            scenario_key_with_topology(spec.scenario, spec.canonical()));
}

TEST(TopoFingerprint, GatewayQueueKindTracksTheScenarioDiscipline) {
  // `queue gateway` resolves from the scenario, so a campaign's
  // `set queue red` keeps the dumbbell file canonically the dumbbell —
  // still the plain key, now for the RED scenario.
  TopoError err;
  const std::string path =
      std::string(BURST_TOPO_EXAMPLES_DIR) + "/dumbbell_n60.topo";
  const auto spec = load_topo_file(path, &err, {{"queue", "red"}});
  ASSERT_TRUE(spec.has_value()) << err.render(path);
  EXPECT_EQ(spec->scenario.gateway, GatewayQueue::kRed);
  EXPECT_TRUE(is_canonical_dumbbell(*spec));
  EXPECT_EQ(topo_key(*spec), scenario_key(spec->scenario));
}

TEST(TopoFingerprint, MeanFieldFileRunIsTheGeneratedDumbbell) {
  // With mean-field scaling on, `$bottleneck_bw` and `queue gateway` read
  // the scaled capacity, so the file still builds the generated dumbbell
  // of its own scenario and shares its plain key.
  TopoError err;
  const std::string path =
      std::string(BURST_TOPO_EXAMPLES_DIR) + "/dumbbell_n60.topo";
  const auto spec = load_topo_file(
      path, &err,
      {{"meanfield_base", "60"}, {"clients", "1000"}, {"queue", "red"}});
  ASSERT_TRUE(spec.has_value()) << err.render(path);
  EXPECT_TRUE(is_canonical_dumbbell(*spec));
  EXPECT_EQ(spec->links[0].rate_bps,
            spec->scenario.scaled_bottleneck_bw_bps());
  EXPECT_EQ(topo_key(*spec), scenario_key(spec->scenario));
}

TEST(TopoFingerprint, OverridesChangeTheKey) {
  TopoError err;
  const std::string path =
      std::string(BURST_TOPO_EXAMPLES_DIR) + "/parking_lot_n30.topo";
  const auto base = load_topo_file(path, &err);
  const auto smaller = load_topo_file(path, &err, {{"clients", "10"}});
  ASSERT_TRUE(base.has_value());
  ASSERT_TRUE(smaller.has_value());
  EXPECT_EQ(smaller->scenario.num_clients, 10);
  EXPECT_NE(topo_key(*base), topo_key(*smaller));
}

}  // namespace
}  // namespace burst
