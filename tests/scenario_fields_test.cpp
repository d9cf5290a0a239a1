// The Scenario field list drives `set`, `$field` and the cache key, so
// every entry is exercised through each of them: adding a field to the
// list puts it under these checks with no test edit. (That the list
// holds every keyed field, in key order, is ScenarioKey's frozen-rendering
// test.)
#include "src/core/scenario.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "src/run/scenario_key.hpp"
#include "src/topo/parser.hpp"

namespace burst {
namespace {

/// A value for field @p f, different from @p v and accepted by its rule.
template <typename T>
std::string other_value(const ScenarioField& f, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "false" : "true";
  } else if constexpr (std::is_same_v<T, Transport>) {
    return v == Transport::kVegas ? "reno" : "vegas";
  } else if constexpr (std::is_same_v<T, GatewayQueue>) {
    return v == GatewayQueue::kRed ? "drr" : "red";
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(v + 1);
  } else {
    // Halfway to a finite upper bound, else past the current value.
    const double next =
        std::isfinite(f.rule.hi) ? (v + f.rule.hi) / 2 : 2 * v + 1;
    std::ostringstream os;
    os.precision(17);
    os << next;
    return os.str();
  }
}

template <typename T>
constexpr bool kNumeric = std::is_arithmetic_v<T> && !std::is_same_v<T, bool>;

const Scenario kDefault = Scenario::paper_default();

TEST(ScenarioFields, EveryFieldChangesTheKey) {
  const Scenario base = Scenario::paper_default();
  const ScenarioKey k0 = scenario_key(base);
  for_each_scenario_field(base, [&](const ScenarioField& f, const auto& v) {
    Scenario s = base;
    std::string msg;
    ASSERT_TRUE(apply_scenario_field(&s, f.name, other_value(f, v), &msg))
        << msg;
    EXPECT_NE(scenario_key(s), k0) << f.name;
    EXPECT_NE(canonical_string(s).find(std::string(f.key) + "="),
              std::string::npos)
        << f.name;
  });
}

TEST(ScenarioFields, NumericValuesRoundTripThroughDollarField) {
  // `set NAME VALUE`, then `$NAME` as a link rate: the parsed link carries
  // the value back. Non-numeric fields are not `$` references.
  const std::string topo =
      "node a\nnode b\n"
      "link a b rate $FIELD delay 1ms queue droptail\n"
      "link b a rate 1Mbps delay 1ms\n"
      "flow a b\n";
  for_each_scenario_field(kDefault, [&](const ScenarioField& f,
                                        const auto& v) {
    std::string text = topo;
    text.replace(text.find("FIELD"), 5, f.name);
    const std::string value = other_value(f, v);
    TopoError err;
    const auto spec = parse_topo(text, "t", &err, {{f.name, value}});
    if constexpr (kNumeric<std::decay_t<decltype(v)>>) {
      ASSERT_TRUE(spec.has_value()) << f.name << ": " << err.message;
      EXPECT_EQ(spec->links[0].rate_bps, std::strtod(value.c_str(), nullptr))
          << f.name;
    } else {
      ASSERT_FALSE(spec.has_value()) << f.name;
      EXPECT_EQ(err.message, "unknown scenario field reference '$" +
                                 std::string(f.name) + "'");
    }
  });
}

TEST(ScenarioFields, BadValuesNameTheRule) {
  for_each_scenario_field(kDefault, [&](const ScenarioField& f,
                                        const auto& v) {
    std::vector<std::string> bad{"abc", "", "nan"};
    if constexpr (kNumeric<std::decay_t<decltype(v)>>) {
      // Just outside each finite bound, and one further out.
      const auto text = [](double d) {
        std::ostringstream os;
        os.precision(17);
        os << d;
        return os.str();
      };
      const double inf = std::numeric_limits<double>::infinity();
      if (std::isfinite(f.rule.lo)) {
        bad.push_back(text(std::nextafter(f.rule.lo, -inf)));
        bad.push_back(text(f.rule.lo - 1));
      }
      if (std::isfinite(f.rule.hi)) {
        bad.push_back(text(std::nextafter(f.rule.hi, inf)));
        bad.push_back(text(f.rule.hi + 1));
      }
    }
    for (const std::string& value : bad) {
      Scenario s = Scenario::paper_default();
      std::string msg;
      EXPECT_FALSE(apply_scenario_field(&s, f.name, value, &msg))
          << f.name << " = " << value;
      EXPECT_EQ(msg, "bad " + std::string(f.rule.what) + " '" + value +
                         "' for field '" + f.name + "'");
      EXPECT_EQ(scenario_key(s), scenario_key(Scenario::paper_default()))
          << "a rejected value must leave the scenario alone";
    }
  });
  std::string msg;
  Scenario s;
  EXPECT_FALSE(apply_scenario_field(&s, "no_such_field", "1", &msg));
  EXPECT_EQ(msg, "unknown scenario field 'no_such_field'");
}

TEST(ScenarioFields, DelackIsASecondSpellingOfDelayedAck) {
  Scenario s;
  std::string msg;
  ASSERT_TRUE(apply_scenario_field(&s, "delack", "on", &msg)) << msg;
  EXPECT_TRUE(s.delayed_ack);
  EXPECT_TRUE(is_boolean_scenario_field("delack"));
  EXPECT_FALSE(apply_scenario_field(&s, "delack", "maybe", &msg));
  EXPECT_EQ(msg, "bad boolean 'maybe' for field 'delack'");
}

TEST(ScenarioFields, DollarFieldReadsTheMeanFieldScaledCapacity) {
  Scenario s;
  s.meanfield_base = 60;
  s.num_clients = 1000;
  double v = 0.0;
  ASSERT_TRUE(scenario_field_value(s, "bottleneck_bw", &v));
  EXPECT_EQ(v, s.scaled_bottleneck_bw_bps());
  ASSERT_TRUE(scenario_field_value(s, "gateway_buffer", &v));
  EXPECT_EQ(v, static_cast<double>(s.scaled_gateway_buffer()));
  ASSERT_TRUE(scenario_field_value(s, "red_min", &v));
  EXPECT_EQ(v, s.scaled_red_min_th());
  ASSERT_TRUE(scenario_field_value(s, "red_max", &v));
  EXPECT_EQ(v, s.scaled_red_max_th());
  // The client side is per flow and does not scale.
  ASSERT_TRUE(scenario_field_value(s, "client_bw", &v));
  EXPECT_EQ(v, s.client_bw_bps);
}

}  // namespace
}  // namespace burst
