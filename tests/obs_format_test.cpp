// The shared export formatter (src/obs/format.hpp) against the printf
// spellings every trace, flight-recorder and runtime-timeline export was
// first written with. The exports are golden-tested byte for byte, so
// write_double must spell every double exactly as snprintf("%.17g")
// does, and the integer helpers exactly as PRId64 / PRIu64. snprintf
// stays here as the reference. write_double has two paths: integer
// arithmetic for integral values below 1e17 and for fixed-style values
// from 1e-4 up (binades 2^-14 to 2^56), and std::to_chars(general, 17)
// for everything else, so the inputs below reach both paths, the switch
// between them, and the integer path's rounding ties.
#include "src/obs/format.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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
  // %g switches to exponent form below 1e-4 and at 1e17 (precision 17),
  // and the integer path picks the decade of every fixed-style value:
  // probe both sides of every power of ten from the decade below 1e-4
  // up to 1e17.
  for (int e = -5; e <= 17; ++e) add_neighbourhood(values, std::pow(10.0, e));
  // Every power of ten and of two in range. Some doubles nearest a power
  // of ten lie just below it and round up to it at 17 digits, a carry
  // into the next decade: 1e-14 and 1e98, for example. In fixed style
  // none does (10^0..10^17 are exact, and the doubles nearest 10^-4..
  // 10^-1 lie above them), so the carries reach the fallback.
  std::size_t carries = 0;
  for (int e = -323; e <= 308; ++e) {
    const double p = std::pow(10.0, e);
    values.push_back(p);
    char at17[40], at25[40];
    std::snprintf(at17, sizeof(at17), "%.17g", p);
    std::snprintf(at25, sizeof(at25), "%.25g", p);
    carries += at17[0] == '1' && at25[0] == '9';
  }
  EXPECT_GT(carries, 0u) << "no power of ten carried at 17 digits";
  for (int e = -1074; e <= 1023; ++e) values.push_back(std::ldexp(1.0, e));
  // Exact ties at the 17th digit, which the integer path rounds half to
  // even: |v| * 10^(16 - X) ends in exactly .5 when v = odd * 2^(X - 17).
  // For X = 15 that is a 16-digit n + 0.25 or n + 0.75, for X = 14 a
  // 15-digit n + 0.125, and so on down to X = -4.
  std::mt19937_64 rng(17);
  for (int x = -4; x <= 15; ++x) {
    // Odd m with 10^x <= m * 2^(x - 17) < 10^(x + 1) and m < 2^53.
    const double lo = std::ceil(std::ldexp(std::pow(10.0, x), 17 - x));
    const double hi = std::min(std::ldexp(std::pow(10.0, x + 1), 17 - x),
                               std::ldexp(1.0, 53));
    const auto base = static_cast<std::uint64_t>(lo);
    const auto span = static_cast<std::uint64_t>(hi - lo);
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t m = (base + rng() % span) | 1;
      const double v = std::ldexp(static_cast<double>(m), x - 17);
      // 18 digits show the tie: the 17-digit rounding drops an exact 5.
      char at18[40];
      std::snprintf(at18, sizeof(at18), "%.18g", v);
      ASSERT_EQ(at18[std::strlen(at18) - 1], '5') << at18;
      values.push_back(v);
      values.push_back(-v);
    }
  }
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
// subnormals included (non-finite patterns are skipped). Uniform
// exponents put few inputs near 1, so every binade the integer path
// serves (2^-14 to 2^56) also gets its own random mantissas.
TEST(ObsFormat, RandomBitPatternsMatchPrintf) {
  std::mt19937_64 rng(20001);
  std::vector<double> values;
  values.reserve(1000000 + 71 * 8192);
  const auto add = [&values](std::uint64_t bits) {
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    if (std::isfinite(v)) values.push_back(v);
  };
  while (values.size() < 1000000) add(rng());
  constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
  for (std::uint64_t e = 1023 - 14; e <= 1023 + 56; ++e) {
    for (int i = 0; i < 8192; ++i) {
      const std::uint64_t r = rng();
      add((r & (std::uint64_t{1} << 63)) | e << 52 | (r & kMantissa));
    }
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
