// The shared export formatter (src/obs/format.hpp) against the printf
// spellings every trace, flight-recorder and runtime-timeline export was
// first written with. The exports are golden-tested byte for byte, so
// std::to_chars(general, 17) must spell every double exactly as
// snprintf("%.17g") does, and the integer helpers exactly as PRId64 /
// PRIu64. snprintf stays here as the reference.
#include "src/obs/format.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace burst {
namespace {

std::string printf_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string format_double(double v) {
  std::string out = "x";  // appends, never overwrites
  obs_format::append_double(out, v);
  return out.substr(1);
}

// Counts mismatches over @p values and reports the first one, so a
// million-input sweep stays one assertion.
void expect_doubles_match(const std::vector<double>& values) {
  std::size_t mismatches = 0;
  for (const double v : values) {
    const std::string want = printf_double(v);
    const std::string got = format_double(v);
    if (got != want && mismatches++ == 0) {
      ADD_FAILURE() << "append_double spelled " << got << ", %.17g " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " inputs";
}

// v and its 16 nearest neighbours on each side, and their negations.
void add_neighbourhood(std::vector<double>& out, double v) {
  double up = v, down = v;
  out.push_back(v);
  out.push_back(-v);
  for (int i = 0; i < 16; ++i) {
    up = std::nextafter(up, std::numeric_limits<double>::infinity());
    down = std::nextafter(down, 0.0);
    for (const double x : {up, down, -up, -down}) out.push_back(x);
  }
}

TEST(ObsFormat, DoubleEdgeCasesMatchPrintf) {
  std::vector<double> values = {
      0.0,      -0.0,     5e-324,   -5e-324,  DBL_MIN,  -DBL_MIN,
      DBL_MAX,  -DBL_MAX, DBL_EPSILON,        1.0,      -1.0,
      0.1,      0.5,      1.0 / 3.0,          2.0 / 3.0, 1e6,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
  };
  // %g switches to exponent form below 1e-4 and at 1e17 (precision 17):
  // probe both sides of every switch and of the decade before it.
  for (const double edge : {1e-5, 1e-4, 1e16, 1e17}) {
    add_neighbourhood(values, edge);
  }
  // Every power of ten and of two in range.
  for (int e = -323; e <= 308; ++e) values.push_back(std::pow(10.0, e));
  for (int e = -1074; e <= 1023; ++e) values.push_back(std::ldexp(1.0, e));
  expect_doubles_match(values);
}

TEST(ObsFormat, IntegralDoublesMatchPrintf) {
  std::vector<double> values;
  for (int i = -100000; i <= 100000; ++i) values.push_back(i);
  // Integers up to and past 2^53, where consecutive doubles stop being
  // consecutive integers.
  for (int e = 20; e <= 64; ++e) add_neighbourhood(values, std::ldexp(1.0, e));
  expect_doubles_match(values);
}

// Values shaped like the exports' own: simulated times (seconds, a sum
// of transmission and propagation delays), their microsecond stamps for
// Perfetto, cwnd-like fractions and wall-clock offsets.
TEST(ObsFormat, TraceLikeValuesMatchPrintf) {
  std::vector<double> values;
  double t = 0.0;
  for (int i = 0; i < 200000; ++i) {
    t += (i % 3 == 0) ? 0.00025 : (i % 3 == 1) ? 0.000125 : 0.01 / 7.0;
    values.push_back(t);
    values.push_back(t * 1e6);
    values.push_back(1.0 + static_cast<double>(i % 997) / (1 + i % 61));
    values.push_back(static_cast<double>(i) * 1e-9);
  }
  expect_doubles_match(values);
}

// A fixed-seed sweep over raw bit patterns: every exponent, both signs,
// subnormals included (non-finite patterns are skipped).
TEST(ObsFormat, RandomBitPatternsMatchPrintf) {
  std::mt19937_64 rng(20001);
  std::vector<double> values;
  values.reserve(1000000);
  while (values.size() < 1000000) {
    const std::uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    if (std::isfinite(v)) values.push_back(v);
  }
  expect_doubles_match(values);
}

TEST(ObsFormat, IntegersMatchPrintf) {
  std::vector<std::int64_t> signed_values = {
      0, 1, -1, 9, 10, -10, 99, 100,
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int32_t>::min(),
      std::numeric_limits<std::int32_t>::max()};
  // Every power of ten that fits, and its neighbours.
  for (std::int64_t p = 1;; p *= 10) {
    for (const std::int64_t v : {p - 1, p, p + 1}) {
      signed_values.push_back(v);
      signed_values.push_back(-v);
    }
    if (p > std::numeric_limits<std::int64_t>::max() / 10) break;
  }
  std::mt19937_64 rng(7);
  for (int i = 0; i < 100000; ++i) {
    signed_values.push_back(static_cast<std::int64_t>(rng()));
  }
  for (const std::int64_t v : signed_values) {
    char want[24];
    std::snprintf(want, sizeof(want), "%" PRId64, v);
    std::string got;
    obs_format::append_i64(got, v);
    ASSERT_EQ(got, want);

    const auto u = static_cast<std::uint64_t>(v);
    std::snprintf(want, sizeof(want), "%" PRIu64, u);
    got.clear();
    obs_format::append_u64(got, u);
    ASSERT_EQ(got, want);
  }
}

}  // namespace
}  // namespace burst
