#include "src/run/scenario_key.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <set>
#include <sstream>
#include <unordered_set>

#include "src/obs/trace.hpp"

namespace burst {
namespace {

TEST(ScenarioKey, HexRoundTrips) {
  ScenarioKey k{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  EXPECT_EQ(k.hex(), "0123456789abcdeffedcba9876543210");
  ScenarioKey parsed;
  ASSERT_TRUE(ScenarioKey::parse(k.hex(), &parsed));
  EXPECT_EQ(parsed, k);
}

TEST(ScenarioKey, ParseRejectsBadInput) {
  ScenarioKey k;
  EXPECT_FALSE(ScenarioKey::parse("", &k));
  EXPECT_FALSE(ScenarioKey::parse("0123", &k));
  EXPECT_FALSE(ScenarioKey::parse(std::string(32, 'g'), &k));
  EXPECT_FALSE(ScenarioKey::parse(std::string(33, '0'), &k));
  // Uppercase is not canonical.
  EXPECT_FALSE(ScenarioKey::parse("0123456789ABCDEFFEDCBA9876543210", &k));
}

TEST(ScenarioKey, StableAcrossCalls) {
  const Scenario s = Scenario::paper_default();
  EXPECT_EQ(scenario_key(s), scenario_key(s));
  EXPECT_EQ(scenario_key(s).hex(), scenario_key(s).hex());
}

TEST(ScenarioKey, EveryAxisChangesTheKey) {
  const Scenario base = Scenario::paper_default();
  const ScenarioKey k0 = scenario_key(base);

  auto differs = [&](auto mutate) {
    Scenario s = base;
    mutate(s);
    return scenario_key(s) != k0;
  };
  EXPECT_TRUE(differs([](Scenario& s) { s.num_clients += 1; }));
  EXPECT_TRUE(differs([](Scenario& s) { s.transport = Transport::kVegas; }));
  EXPECT_TRUE(differs([](Scenario& s) { s.gateway = GatewayQueue::kRed; }));
  EXPECT_TRUE(differs([](Scenario& s) { s.delayed_ack = true; }));
  EXPECT_TRUE(differs([](Scenario& s) { s.seed += 1; }));
  EXPECT_TRUE(differs([](Scenario& s) { s.duration += 0.5; }));
  EXPECT_TRUE(differs([](Scenario& s) { s.warmup += 0.25; }));
  EXPECT_TRUE(differs([](Scenario& s) { s.red_max_th += 1.0; }));
  EXPECT_TRUE(differs([](Scenario& s) { s.vegas.alpha += 1.0; }));
  EXPECT_TRUE(differs([](Scenario& s) { s.rto.min_rto *= 2.0; }));
  EXPECT_TRUE(differs([](Scenario& s) { s.gateway_buffer += 10; }));
  // Tiny double perturbations count too (hexfloat canonicalization).
  EXPECT_TRUE(differs([](Scenario& s) { s.mean_interarrival += 1e-12; }));
}

// The shard count can reorder same-instant ties, so it is part of the
// key; a trace sink only observes, so a traced run shares the bare key.
TEST(ScenarioKey, OptionsArePartOfTheKey) {
  const Scenario s = Scenario::paper_default();
  ExperimentOptions lp1;
  lp1.lp_shards = 1;
  ExperimentOptions lp2;
  lp2.lp_shards = 2;
  ExperimentOptions lp4;
  lp4.lp_shards = 4;
  EXPECT_EQ(scenario_key(s), scenario_key(s, lp1));
  EXPECT_NE(scenario_key(s), scenario_key(s, lp2));
  EXPECT_NE(scenario_key(s, lp2), scenario_key(s, lp4));
  TraceSink sink;
  ExperimentOptions traced;
  traced.trace = &sink;
  EXPECT_EQ(scenario_key(s), scenario_key(s, traced));
  traced.lp_shards = 2;
  EXPECT_EQ(scenario_key(s, lp2), scenario_key(s, traced));
}

TEST(ScenarioKey, CanonicalStringCarriesSchemaVersion) {
  const std::string canon = canonical_string(Scenario::paper_default());
  EXPECT_NE(canon.find("schema=" + std::to_string(kResultSchemaVersion) + ";"),
            std::string::npos);
  EXPECT_NE(canon.find("transport=Reno;"), std::string::npos);
  // The text of two deleted options, kept so every stored key holds.
  EXPECT_NE(canon.find(";trace_clients=;cwnd_sample_period=0x0p+0;"),
            std::string::npos);
}

// canonical_string as it was written before its Scenario part came from
// the field list, frozen verbatim: the rendering the cache keys, the five
// identity hashes and every pinned fingerprint were taken on.
class FrozenCanon {
 public:
  FrozenCanon& field(std::string_view name, double v) {
    os_ << name << '=' << std::hexfloat << v << ';';
    return *this;
  }
  FrozenCanon& field(std::string_view name, std::int64_t v) {
    os_ << name << '=' << std::dec << v << ';';
    return *this;
  }
  FrozenCanon& field(std::string_view name, std::uint64_t v) {
    os_ << name << '=' << std::dec << v << ';';
    return *this;
  }
  FrozenCanon& field(std::string_view name, bool v) {
    os_ << name << '=' << (v ? 1 : 0) << ';';
    return *this;
  }
  FrozenCanon& field(std::string_view name, std::string_view v) {
    os_ << name << '=' << v << ';';
    return *this;
  }
  std::string str() const { return os_.str(); }

 private:
  std::ostringstream os_;
};

std::string frozen_canonical_string(const Scenario& s,
                                    const ExperimentOptions& opts) {
  FrozenCanon c;
  c.field("schema", static_cast<std::uint64_t>(kResultSchemaVersion));
  // Experiment axes.
  c.field("num_clients", static_cast<std::int64_t>(s.num_clients));
  c.field("transport", to_string(s.transport));
  c.field("gateway", to_string(s.gateway));
  c.field("delayed_ack", s.delayed_ack);
  c.field("ecn", s.ecn);
  c.field("adaptive_red", s.adaptive_red);
  c.field("limited_transmit", s.limited_transmit);
  c.field("cwnd_validation", s.cwnd_validation);
  // Appended only when active so every pre-existing scenario keeps its
  // historical key (and topo fingerprint) byte-for-byte.
  if (s.meanfield_base != 0) {
    c.field("meanfield_base", static_cast<std::int64_t>(s.meanfield_base));
  }
  // Table 1.
  c.field("client_bw_bps", s.client_bw_bps);
  c.field("client_delay", s.client_delay);
  c.field("client_delay_spread", s.client_delay_spread);
  c.field("bottleneck_bw_bps", s.bottleneck_bw_bps);
  c.field("bottleneck_delay", s.bottleneck_delay);
  c.field("advertised_window", s.advertised_window);
  c.field("gateway_buffer", static_cast<std::uint64_t>(s.gateway_buffer));
  c.field("payload_bytes", static_cast<std::int64_t>(s.payload_bytes));
  c.field("mean_interarrival", s.mean_interarrival);
  c.field("duration", s.duration);
  c.field("red_min_th", s.red_min_th);
  c.field("red_max_th", s.red_max_th);
  c.field("vegas_alpha", s.vegas.alpha);
  c.field("vegas_beta", s.vegas.beta);
  c.field("vegas_gamma", s.vegas.gamma);
  // Modeling knobs.
  c.field("red_weight", s.red_weight);
  c.field("red_max_p", s.red_max_p);
  c.field("rto_granularity", s.rto.granularity);
  c.field("rto_min", s.rto.min_rto);
  c.field("rto_max", s.rto.max_rto);
  c.field("rto_initial", s.rto.initial_rto);
  c.field("warmup", s.warmup);
  c.field("client_queue_buffer",
          static_cast<std::uint64_t>(s.client_queue_buffer));
  c.field("seed", s.seed);
  // Experiment options. The cwnd trace client list and sample period
  // were options then; every stored key rendered them empty, the only
  // value they can take now.
  c.field("trace_clients", std::string());
  c.field("cwnd_sample_period", 0.0);
  // Parallel runs are deterministic per shard count but may order exact
  // same-instant ties differently than the sequential engine, so the
  // cache must key on the shard count. Appended only when > 1 so every
  // sequential scenario keeps its historical key byte-for-byte.
  if (opts.lp_shards > 1) {
    c.field("lp_shards", static_cast<std::int64_t>(opts.lp_shards));
  }
  return c.str();
}

TEST(ScenarioKey, CanonicalStringMatchesTheFrozenRendering) {
  std::mt19937_64 rng(20260);
  // Random bit patterns cover every double class (subnormals, infinities,
  // NaNs); a quarter of the draws are a signed zero instead.
  auto real = [&rng] {
    const std::uint64_t bits = rng();
    if ((bits & 3) == 0) return (bits & 4) != 0 ? -0.0 : 0.0;
    return std::bit_cast<double>(rng());
  };
  auto integer = [&rng] { return static_cast<int>(rng()); };
  auto flag = [&rng] { return (rng() & 1) != 0; };
  for (int i = 0; i < 100'000; ++i) {
    Scenario s;
    s.num_clients = integer();
    s.transport = static_cast<Transport>(rng() % 6);
    s.gateway = static_cast<GatewayQueue>(rng() % 3);
    s.delayed_ack = flag();
    s.ecn = flag();
    s.adaptive_red = flag();
    s.limited_transmit = flag();
    s.cwnd_validation = flag();
    s.meanfield_base = flag() ? 0 : integer();
    s.client_bw_bps = real();
    s.client_delay = real();
    s.client_delay_spread = real();
    s.bottleneck_bw_bps = real();
    s.bottleneck_delay = real();
    s.advertised_window = real();
    s.gateway_buffer = static_cast<std::size_t>(rng());
    s.payload_bytes = integer();
    s.mean_interarrival = real();
    s.duration = real();
    s.red_min_th = real();
    s.red_max_th = real();
    s.vegas.alpha = real();
    s.vegas.beta = real();
    s.vegas.gamma = real();
    s.red_weight = real();
    s.red_max_p = real();
    s.rto.granularity = real();
    s.rto.min_rto = real();
    s.rto.max_rto = real();
    s.rto.initial_rto = real();
    s.warmup = real();
    s.client_queue_buffer = static_cast<std::size_t>(rng());
    s.seed = rng();
    ExperimentOptions opts;
    opts.lp_shards = 1 + static_cast<int>(rng() % 4);
    ASSERT_EQ(canonical_string(s, opts), frozen_canonical_string(s, opts))
        << "draw " << i;
  }
}

TEST(DeriveSeed, DeterministicAndKeyedOnValues) {
  EXPECT_EQ(derive_seed(1, "Reno", 30), derive_seed(1, "Reno", 30));
  EXPECT_NE(derive_seed(1, "Reno", 30), derive_seed(1, "Reno", 33));
  EXPECT_NE(derive_seed(1, "Reno", 30), derive_seed(1, "Vegas", 30));
  EXPECT_NE(derive_seed(1, "Reno", 30), derive_seed(2, "Reno", 30));
}

TEST(DeriveSeed, NoCollisionsOnLargeGrids) {
  // The old affine formula (base + 1000003*c + 17*p) collides as soon as
  // two (c, p) pairs land on the same lattice point across base seeds;
  // the splitmix mix must keep a dense grid collision-free.
  const std::vector<std::string> series{"UDP",       "Reno",  "Reno/RED",
                                        "Vegas",     "Vegas/RED",
                                        "Reno/DelayAck"};
  std::unordered_set<std::uint64_t> seen;
  std::size_t count = 0;
  for (std::uint64_t base : {1ULL, 2ULL, 1000003ULL}) {
    for (const auto& name : series) {
      for (int n = 1; n <= 200; ++n) {
        seen.insert(derive_seed(base, name, n));
        ++count;
      }
    }
  }
  EXPECT_EQ(seen.size(), count);
}

TEST(Splitmix64, MatchesReferenceVectors) {
  // Reference outputs of the splitmix64 finalizer for state 0, 1
  // (Vigna's splitmix64.c test values).
  EXPECT_EQ(splitmix64(0), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(splitmix64(1), 0x910A2DEC89025CC1ULL);
}

}  // namespace
}  // namespace burst
