#include "src/core/cli.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <cstdio>
#include <fstream>

#include "src/run/scenario_key.hpp"

#ifndef BURST_TOPO_EXAMPLES_DIR
#define BURST_TOPO_EXAMPLES_DIR "examples/topologies"
#endif

namespace burst {
namespace {

std::optional<CliRequest> parse(std::vector<std::string> args,
                                std::string* err = nullptr) {
  CliError error;
  auto r = parse_cli(args, &error);
  if (err) *err = error.message;
  return r;
}

TEST(Cli, DefaultsArePaperScenario) {
  const auto r = parse({});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->spec.scenario.transport, Transport::kReno);
  EXPECT_EQ(r->spec.scenario.num_clients, 20);
  EXPECT_FALSE(r->show_help);
}

TEST(Cli, ParsesTransports) {
  for (const auto& [name, t] :
       std::vector<std::pair<std::string, Transport>>{
           {"udp", Transport::kUdp},
           {"tahoe", Transport::kTahoe},
           {"reno", Transport::kReno},
           {"newreno", Transport::kNewReno},
           {"vegas", Transport::kVegas},
           {"sack", Transport::kSack}}) {
    const auto r = parse({"--transport=" + name});
    ASSERT_TRUE(r.has_value()) << name;
    EXPECT_EQ(r->spec.scenario.transport, t);
  }
}

TEST(Cli, ParsesQueues) {
  EXPECT_EQ(parse({"--queue=red"})->spec.scenario.gateway,
            GatewayQueue::kRed);
  EXPECT_EQ(parse({"--queue=drr"})->spec.scenario.gateway,
            GatewayQueue::kDrr);
  EXPECT_EQ(parse({"--queue=fifo"})->spec.scenario.gateway,
            GatewayQueue::kDropTail);
  EXPECT_EQ(parse({"--queue=droptail"})->spec.scenario.gateway,
            GatewayQueue::kDropTail);
}

TEST(Cli, ParsesNumericOptions) {
  const auto r = parse({"--clients=55", "--duration=7.5", "--seed=9",
                        "--buffer=80", "--bottleneck-mbps=16",
                        "--mean-interarrival=0.02"});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->spec.scenario.num_clients, 55);
  EXPECT_DOUBLE_EQ(r->spec.scenario.duration, 7.5);
  EXPECT_EQ(r->spec.scenario.seed, 9u);
  EXPECT_EQ(r->spec.scenario.gateway_buffer, 80u);
  EXPECT_DOUBLE_EQ(r->spec.scenario.bottleneck_bw_bps, 16e6);
  EXPECT_DOUBLE_EQ(r->spec.scenario.mean_interarrival, 0.02);
}

TEST(Cli, ParsesFlags) {
  const auto r = parse({"--delack", "--ecn", "--adaptive-red",
                        "--limited-transmit", "--cwnd-validation"});
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->spec.scenario.delayed_ack);
  EXPECT_TRUE(r->spec.scenario.ecn);
  EXPECT_TRUE(r->spec.scenario.adaptive_red);
  EXPECT_TRUE(r->spec.scenario.limited_transmit);
  EXPECT_TRUE(r->spec.scenario.cwnd_validation);
}

TEST(Cli, ParsesTraceList) {
  const auto r = parse({"--clients=10", "--trace=0,3,9"});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->cwnd_clients, (std::vector<int>{0, 3, 9}));
}

TEST(Cli, TraceOutOfRangeRejected) {
  std::string err;
  EXPECT_FALSE(parse({"--clients=10", "--trace=10"}, &err).has_value());
  EXPECT_NE(err.find("out of range"), std::string::npos);
}

TEST(Cli, RedThresholdOrderingValidated) {
  std::string err;
  EXPECT_FALSE(parse({"--red-min=40", "--red-max=10"}, &err).has_value());
  EXPECT_NE(err.find("red-min"), std::string::npos);
  EXPECT_TRUE(parse({"--red-min=5", "--red-max=20"}).has_value());
}

TEST(Cli, RejectsUnknownAndMalformed) {
  std::string err;
  EXPECT_FALSE(parse({"--nope"}, &err).has_value());
  EXPECT_NE(err.find("unknown option"), std::string::npos);
  EXPECT_FALSE(parse({"positional"}, &err).has_value());
  EXPECT_FALSE(parse({"--clients=zero"}, &err).has_value());
  EXPECT_FALSE(parse({"--clients=-3"}, &err).has_value());
  EXPECT_FALSE(parse({"--duration=-1"}, &err).has_value());
  EXPECT_FALSE(parse({"--transport"}, &err).has_value());
}

TEST(Cli, HelpFlag) {
  const auto r = parse({"--help"});
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->show_help);
  EXPECT_NE(cli_usage().find("--transport"), std::string::npos);
}

TEST(Cli, CsvPath) {
  const auto r = parse({"--csv=/tmp/out"});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->csv_path, "/tmp/out");
}

// Every scenario flag is its historical spelling of a `set` field.
TEST(Cli, FlagsAreSetFields) {
  const std::vector<std::pair<std::string, std::string>> flags = {
      {"--transport=vegas", "--set=transport=vegas"},
      {"--queue=red", "--set=queue=red"},
      {"--clients=33", "--set=clients=33"},
      {"--duration=7.5", "--set=duration=7.5"},
      {"--seed=4294967296", "--set=seed=4294967296"},
      {"--buffer=80", "--set=gateway_buffer=80"},
      {"--bottleneck-mbps=16", "--set=bottleneck_bw=16Mbps"},
      {"--mean-interarrival=0.02", "--set=mean_interarrival=0.02"},
      {"--red-min=2", "--set=red_min=2"},
      {"--red-max=30", "--set=red_max=30"},
      {"--red-maxp=0.2", "--set=red_maxp=0.2"},
      {"--delack", "--set=delayed_ack=true"},
      {"--ecn", "--set=ecn=true"},
      {"--adaptive-red", "--set=adaptive_red=true"},
      {"--limited-transmit", "--set=limited_transmit=true"},
      {"--cwnd-validation", "--set=cwnd_validation=true"},
  };
  const std::string defaults =
      canonical_string(Scenario::paper_default(), {});
  for (const auto& [flag, set] : flags) {
    const auto a = parse({flag});
    const auto b = parse({set});
    ASSERT_TRUE(a.has_value()) << flag;
    ASSERT_TRUE(b.has_value()) << set;
    EXPECT_EQ(canonical_string(a->spec.scenario, {}),
              canonical_string(b->spec.scenario, {}))
        << flag;
    EXPECT_NE(canonical_string(a->spec.scenario, {}), defaults) << flag;
    EXPECT_EQ(a->spec.canonical(), b->spec.canonical()) << flag;
  }
  // The flag value keeps its historical arithmetic: X Mbps is X * 1e6.
  EXPECT_EQ(parse({"--bottleneck-mbps=1.7"})->spec.scenario.bottleneck_bw_bps,
            1.7 * 1e6);
  // A bare flag is `true` only for the boolean fields.
  std::string err;
  EXPECT_FALSE(parse({"--buffer"}, &err).has_value());
  EXPECT_NE(err.find("requires a value"), std::string::npos);
  EXPECT_FALSE(parse({"--delack=false"})->spec.scenario.delayed_ack);
}

TEST(Cli, SetAppliesWithoutScenario) {
  const auto r = parse({"--set=clients=5", "--set=queue=red"});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->spec.scenario.num_clients, 5);
  EXPECT_EQ(r->spec.scenario.gateway, GatewayQueue::kRed);
  EXPECT_EQ(r->spec.canonical(),
            make_dumbbell_spec(r->spec.scenario).canonical());
  // Flags and --set apply in command-line order: the last one wins.
  EXPECT_EQ(parse({"--clients=7", "--set=clients=9"})->spec.scenario
                .num_clients,
            9);
  EXPECT_EQ(parse({"--set=clients=9", "--clients=7"})->spec.scenario
                .num_clients,
            7);
  std::string err;
  EXPECT_FALSE(parse({"--set=bogus=1"}, &err).has_value());
  EXPECT_NE(err.find("unknown scenario field 'bogus'"), std::string::npos);
  EXPECT_FALSE(parse({"--set=clients"}, &err).has_value());
  EXPECT_FALSE(parse({"--set=clients=0"}, &err).has_value());
}

TEST(Cli, ScenarioFileTakesRunOptions) {
  const std::string file =
      std::string(BURST_TOPO_EXAMPLES_DIR) + "/dumbbell_n60.topo";
  // The file's own `set clients 60` applies when no flag overrides it.
  const auto plain = parse({"--scenario=" + file});
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->spec.scenario.num_clients, 60);
  EXPECT_EQ(plain->scenario_file, file);
  EXPECT_FALSE(plain->validate);

  CliError error;
  const auto r = parse_cli(
      {"--scenario=" + file, "--clients=10", "--queue=red", "--lp=2",
       "--trace=0,9", "--csv=out", "--trace-out=tr", "--fr-out=fr",
       "--fr-period=0.05", "--fr-cap=16", "--profile"},
      &error);
  ASSERT_TRUE(r.has_value()) << error.message;
  EXPECT_EQ(r->spec.scenario.num_clients, 10);
  EXPECT_EQ(r->spec.nodes.front().count, 10);  // $clients reshaped the graph
  EXPECT_EQ(r->spec.scenario.gateway, GatewayQueue::kRed);
  EXPECT_EQ(r->options.lp_shards, 2);
  EXPECT_EQ(r->cwnd_clients, (std::vector<int>{0, 9}));
  EXPECT_EQ(r->csv_path, "out");
  EXPECT_EQ(r->trace_path, "tr");
  EXPECT_EQ(r->fr_path, "fr");
  EXPECT_DOUBLE_EQ(r->fr_period, 0.05);
  EXPECT_EQ(r->fr_cap, 16);
  EXPECT_TRUE(r->profile);
  // The file run and the flag run are one scenario.
  const auto flags = parse({"--clients=10", "--queue=red"});
  EXPECT_EQ(topo_key(r->spec).hex(), topo_key(flags->spec).hex());

  // --trace is range-checked against the file's flows, after overrides.
  error = {};
  EXPECT_FALSE(
      parse_cli({"--scenario=" + file, "--clients=10", "--trace=10"}, &error)
          .has_value());
  EXPECT_NE(error.message.find("out of range"), std::string::npos);
  EXPECT_EQ(error.exit_code, 2);
  // A bad flag value is a flag error even next to a good file.
  error = {};
  EXPECT_FALSE(
      parse_cli({"--scenario=" + file, "--clients=x"}, &error).has_value());
  EXPECT_EQ(error.exit_code, 2);

  // A bad file exits 1 with a file:line:col diagnostic.
  const std::string bad = ::testing::TempDir() + "/cli_bad.topo";
  {
    std::ofstream f(bad);
    f << "node a\nlink a b rate 1Mbps delay 1ms\n";
  }
  for (const std::string mode : {"--scenario=", "--validate="}) {
    error = {};
    EXPECT_FALSE(parse_cli({mode + bad}, &error).has_value()) << mode;
    EXPECT_EQ(error.exit_code, 1) << mode;
    EXPECT_NE(error.message.find(bad + ":2:8:"), std::string::npos)
        << error.message;
  }
  std::remove(bad.c_str());

  const auto v = parse({"--validate=" + file, "--clients=7"});
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->validate);
  EXPECT_EQ(v->spec.scenario.num_clients, 7);
  EXPECT_FALSE(
      parse({"--scenario=" + file, "--validate=" + file}).has_value());
}

TEST(Cli, IntegerOptionsRejectOverflow) {
  // Each of these once narrowed to a small int (4294967298 -> 2) and ran.
  std::string err;
  EXPECT_FALSE(parse({"--lp=4294967298"}, &err).has_value());
  EXPECT_NE(err.find("--lp"), std::string::npos);
  EXPECT_FALSE(parse({"--fr-cap=4294967298"}, &err).has_value());
  EXPECT_NE(err.find("--fr-cap"), std::string::npos);
  EXPECT_FALSE(parse({"--trace=4294967296"}, &err).has_value());
  EXPECT_NE(err.find("--trace"), std::string::npos);
  EXPECT_FALSE(parse({"--clients=4294967297"}, &err).has_value());
  EXPECT_NE(err.find("client count"), std::string::npos);
  EXPECT_EQ(parse({"--lp=2147483647"})->options.lp_shards, INT_MAX);

  int n = -7;
  EXPECT_TRUE(parse_int_option("12", 0, 1024, &n));
  EXPECT_EQ(n, 12);
  for (const char* bad : {"", "-1", "1025", "4294967296", "99999999999999999999",
                          "3x", "1.5", "abc"}) {
    n = -7;
    EXPECT_FALSE(parse_int_option(bad, 0, 1024, &n)) << bad;
    EXPECT_EQ(n, -7) << bad;
  }
}

}  // namespace
}  // namespace burst
