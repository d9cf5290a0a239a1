#include "src/topo/parser.hpp"

#include <gtest/gtest.h>

#include <string>

namespace burst {
namespace {

// A minimal valid dumbbell body tests below perturb.
constexpr const char* kGood = R"(scenario t
node client count 4
node gw
node server
link gw server rate 32Mbps delay 20ms queue droptail
link server gw rate 32Mbps delay 20ms
link client gw rate 10Mbps delay 20ms
link gw client rate 10Mbps delay 20ms
flow client server
measure gw server
)";

TopoError expect_fail(const std::string& text,
                      const TopoOverrides& overrides = {}) {
  TopoError err;
  const auto spec = parse_topo(text, "t", &err, overrides);
  EXPECT_FALSE(spec.has_value()) << "unexpectedly parsed:\n" << text;
  return err;
}

TEST(TopoParser, ParsesTheGoodFile) {
  TopoError err;
  const auto spec = parse_topo(kGood, "fallback", &err);
  ASSERT_TRUE(spec.has_value()) << err.render("good");
  EXPECT_EQ(spec->name, "t");
  EXPECT_EQ(spec->total_nodes(), 6);
  EXPECT_EQ(spec->links.size(), 4u);
  EXPECT_EQ(spec->flows.size(), 1u);
  EXPECT_EQ(spec->measure_link, 0);
}

TEST(TopoParser, MalformedStatementCarriesLineAndColumn) {
  const TopoError err = expect_fail(
      "node client count 4\n"
      "nodule gw\n");
  EXPECT_EQ(err.line, 2);
  EXPECT_EQ(err.col, 1);
  EXPECT_NE(err.message.find("nodule"), std::string::npos);
  // render() emits the editor-friendly file:line:col prefix.
  EXPECT_EQ(err.render("x.topo").rfind("x.topo:2:1: ", 0), 0u);
}

TEST(TopoParser, BadNumberPointsAtTheToken) {
  const TopoError err = expect_fail(
      "node client count 4\n"
      "node gw\n"
      "link client gw rate tenMbps delay 20ms\n");
  EXPECT_EQ(err.line, 3);
  EXPECT_EQ(err.col, 21);  // the "tenMbps" token
}

TEST(TopoParser, UnknownQueueTypeIsRejected) {
  const TopoError err = expect_fail(
      "node a\n"
      "node b\n"
      "link a b rate 1Mbps delay 1ms queue codel\n"
      "flow a b\n");
  EXPECT_EQ(err.line, 3);
  EXPECT_NE(err.message.find("codel"), std::string::npos);
  EXPECT_NE(err.message.find("droptail"), std::string::npos);  // suggests
}

TEST(TopoParser, DanglingLinkEndpointIsRejected) {
  const TopoError err = expect_fail(
      "node client count 4\n"
      "node gw\n"
      "link client gateway rate 10Mbps delay 20ms\n");
  EXPECT_EQ(err.line, 3);
  EXPECT_NE(err.message.find("gateway"), std::string::npos);
}

TEST(TopoParser, DuplicateNodeIsRejected) {
  const TopoError err = expect_fail(
      "node client count 4\n"
      "node client\n");
  EXPECT_EQ(err.line, 2);
  EXPECT_NE(err.message.find("client"), std::string::npos);
}

TEST(TopoParser, FlowWithoutRouteIsRejected) {
  // client -> gw exists but nothing reaches server.
  const TopoError err = expect_fail(
      "node client\n"
      "node gw\n"
      "node server\n"
      "link client gw rate 10Mbps delay 20ms queue droptail\n"
      "link gw client rate 10Mbps delay 20ms\n"
      "flow client server\n");
  EXPECT_NE(err.message.find("no route"), std::string::npos);
}

TEST(TopoParser, MissingReverseAckPathIsRejected) {
  const TopoError err = expect_fail(
      "node client\n"
      "node server\n"
      "link client server rate 10Mbps delay 20ms queue droptail\n"
      "flow client server\n");
  EXPECT_NE(err.message.find("ACK"), std::string::npos);
}

TEST(TopoParser, NothingToMeasureIsRejected) {
  const TopoError err = expect_fail(
      "node a\n"
      "node b\n"
      "link a b rate 1Mbps delay 1ms\n"
      "link b a rate 1Mbps delay 1ms\n"
      "flow a b\n");
  EXPECT_NE(err.message.find("measure"), std::string::npos);
}

TEST(TopoParser, RedThresholdOrderingIsValidated) {
  const TopoError err = expect_fail(
      "node a\n"
      "node b\n"
      "link a b rate 1Mbps delay 1ms queue red min 40 max 10\n"
      "link b a rate 1Mbps delay 1ms\n"
      "flow a b\n");
  EXPECT_EQ(err.line, 3);
  EXPECT_NE(err.message.find("threshold"), std::string::npos);
}

TEST(TopoParser, SetAfterGraphStatementIsRejected) {
  const TopoError err = expect_fail(
      "node a\n"
      "set clients 9\n");
  EXPECT_EQ(err.line, 2);
  EXPECT_NE(err.message.find("precede"), std::string::npos);
}

TEST(TopoParser, UnknownDollarFieldIsRejected) {
  const TopoError err = expect_fail(
      "node client count $nope\n");
  EXPECT_EQ(err.line, 1);
  EXPECT_NE(err.message.find("nope"), std::string::npos);
}

TEST(TopoParser, OverridesReshapeTheGraph) {
  TopoError err;
  TopoOverrides overrides{{"clients", "7"}};
  std::string text = kGood;
  text.replace(text.find("count 4"), 7, "count $clients");
  const auto spec = parse_topo(text, "t", &err, overrides);
  ASSERT_TRUE(spec.has_value()) << err.render("t");
  EXPECT_EQ(spec->scenario.num_clients, 7);
  EXPECT_EQ(spec->nodes[0].count, 7);
}

TEST(TopoParser, BadOverrideIsAFileLevelError) {
  const TopoError err = expect_fail(kGood, {{"clients", "zero"}});
  EXPECT_EQ(err.line, 0);
  EXPECT_NE(err.message.find("clients"), std::string::npos);
}

TEST(TopoParser, UnitArithmeticMatchesTheCppHelpers) {
  TopoError err;
  const auto spec = parse_topo(kGood, "t", &err);
  ASSERT_TRUE(spec.has_value());
  // "20ms" and "32Mbps" must be bit-identical to ms(20) and 32e6 — this
  // equality is what makes parsed fingerprints match generated ones.
  EXPECT_EQ(spec->links[0].delay, ms(20));
  EXPECT_EQ(spec->links[0].rate_bps, 32e6);
  EXPECT_EQ(spec->links[2].rate_bps, 10e6);
}

// Integer fields are range-checked before the cast to int: 1e10 once
// reached static_cast<int>, which is undefined behaviour out of range.
TEST(TopoParser, IntegerFieldsRejectOutOfRange) {
  for (const char* field : {"clients", "payload_bytes", "meanfield_base"}) {
    for (const char* value : {"1e10", "-1e10", "2147483648", "inf", "nan",
                              "2.5"}) {
      Scenario sc = Scenario::paper_default();
      std::string msg;
      EXPECT_FALSE(apply_scenario_field(&sc, field, value, &msg))
          << field << " " << value;
      EXPECT_NE(msg.find(field), std::string::npos) << msg;
    }
    Scenario sc = Scenario::paper_default();
    std::string msg;
    EXPECT_TRUE(apply_scenario_field(&sc, field, "2147483647", &msg)) << msg;
  }
  // The graph's integers (node counts, queue caps) take the same check.
  std::string text = kGood;
  text.replace(text.find("count 4"), 7, "count 1e10");
  EXPECT_NE(expect_fail(text).message.find("not a positive integer"),
            std::string::npos);
  text = kGood;
  text.replace(text.find("queue droptail"), 14, "queue droptail cap 1e20");
  EXPECT_NE(expect_fail(text).message.find("not a positive integer"),
            std::string::npos);
  text = kGood;
  text.replace(text.find("queue droptail"), 14, "queue drr quantum 1e20");
  EXPECT_NE(expect_fail(text).message.find("quantum"), std::string::npos);
}

}  // namespace
}  // namespace burst
