#include "src/obs/format.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstring>

namespace burst::obs_format {

namespace {

__extension__ using u128 = unsigned __int128;

// 5^k for the fixed-style scalings 10^k = 5^k * 2^k, k = 16 - X in [0, 20].
constexpr auto kPow5 = [] {
  std::array<std::uint64_t, 21> p{};
  p[0] = 1;
  for (std::size_t k = 1; k < p.size(); ++k) p[k] = p[k - 1] * 5;
  return p;
}();

// 10^(X + 1) for X in [-5, 15]. |v| >= 10^(X + 1) compares exactly:
// 10^0..10^16 are doubles, and the doubles nearest 10^-4..10^-1 lie
// above them, so no double falls between such a power and its double.
constexpr double kDecadeEnd[] = {1e-4, 1e-3, 1e-2, 1e-1, 1e0,  1e1,  1e2,
                                 1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,
                                 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16};

constexpr std::uint64_t kTen17 = 100'000'000'000'000'000;

constexpr char kDigitPairs[] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

// Writes the 8 digits of @p n < 10^8, leading zeros included.
void put8(char* out, std::uint32_t n) {
  const std::uint32_t hi = n / 10000;
  const std::uint32_t lo = n % 10000;
  std::memcpy(out, kDigitPairs + 2 * (hi / 100), 2);
  std::memcpy(out + 2, kDigitPairs + 2 * (hi % 100), 2);
  std::memcpy(out + 4, kDigitPairs + 2 * (lo / 100), 2);
  std::memcpy(out + 6, kDigitPairs + 2 * (lo % 100), 2);
}

}  // namespace

char* write_double(char* out, double v) {
  char* const start = out;
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  const std::uint64_t fraction = bits & ((std::uint64_t{1} << 52) - 1);
  if ((bits >> 63) != 0) *out++ = '-';
  if (biased == 0 && fraction == 0) {  // %g keeps the sign of -0
    *out++ = '0';
    return out;
  }
  // A normal |v| = m / 2^shift lies in [2^exp2, 2^(exp2 + 1)). Below
  // 2^-14 (< 1e-4) %g prints in exponent style, and so it does from 1e17
  // (< 2^57) on: both, like subnormals, inf and NaN, take the fallback.
  const int exp2 = biased - 1023;
  if (biased != 0 && exp2 >= -14 && exp2 <= 56) {
    const std::uint64_t m = fraction | (std::uint64_t{1} << 52);
    const int shift = 52 - exp2;
    if (shift <= 0) {  // an integer of 53 to 57 bits
      const std::uint64_t n = m << -shift;
      if (n < kTen17) return std::to_chars(out, out + 20, n).ptr;
    } else if (shift <= 52 && (m & ((std::uint64_t{1} << shift) - 1)) == 0) {
      return std::to_chars(out, out + 20, m >> shift).ptr;
    } else {
      // Not integral, so |v| < 2^52 < 10^16. Its decimal exponent X is
      // floor(exp2 * log10 2) or one more, which one exact compare
      // settles. %g prints fixed style with 16 - X decimals when X >= -4,
      // from n = round(|v| * 10^k), k = 16 - X, half to even, computed
      // exactly: |v| * 10^k = m * 5^k / 2^s with m * 5^k < 2^53 * 5^20
      // < 2^100 and s = shift - k in [0, 46].
      int x = (exp2 * 78913) >> 18;
      x += std::fabs(v) >= kDecadeEnd[x + 5];
      if (x >= -4) {
        const int k = 16 - x;
        const int s = shift - k;
        const u128 p = u128{m} * kPow5[static_cast<std::size_t>(k)];
        const auto lo = static_cast<std::uint64_t>(p);
        const auto hi = static_cast<std::uint64_t>(p >> 64);
        std::uint64_t n = (lo >> s) | ((hi << 1) << (63 - s));
        const std::uint64_t unit = std::uint64_t{1} << s;  // 1 in n's units
        const std::uint64_t rem2 = (lo & (unit - 1)) << 1;
        n += (rem2 > unit) | ((rem2 == unit) & (n & 1));
        // An ulp of |v| exceeds half a unit of n (2^-53 * 10^X against
        // 5 * 10^(X - 17)), and |v| lies at least an ulp from every
        // integer and half an ulp from 10^(X + 1). So n neither carries
        // into the next decade, not even from below 1e-4, nor rounds the
        // fraction away: a point and a nonzero fraction digit follow.
        char d[17];  // n's digits: n in [10^16, 10^17)
        const std::uint64_t head = n / 100'000'000;
        d[0] = static_cast<char>('0' + head / 100'000'000);
        put8(d + 1, static_cast<std::uint32_t>(head % 100'000'000));
        put8(d + 9, static_cast<std::uint32_t>(n % 100'000'000));
        std::size_t end = 17;  // past the last nonzero digit
        while (d[end - 1] == '0') --end;
        if (x >= 0) {  // the integer part is d[0..x]
          const auto whole = static_cast<std::size_t>(x + 1);
          std::memcpy(out, d, whole);
          out += whole;
          *out++ = '.';
          std::memcpy(out, d + whole, end - whole);
          return out + (end - whole);
        }
        *out++ = '0';
        *out++ = '.';
        for (int z = -1; z > x; --z) *out++ = '0';
        std::memcpy(out, d, end);
        return out + end;
      }
    }
  }
  return std::to_chars(start, start + kMaxDoubleChars, v,
                       std::chars_format::general, 17)
      .ptr;
}

void append_double(std::string& out, double v) {
  char buf[kMaxDoubleChars];
  out.append(buf, write_double(buf, v));
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

}  // namespace burst::obs_format
