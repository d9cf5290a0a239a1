// Number and string formatting shared by every JSON or CSV text the
// simulator writes byte for byte: the src/obs exports (trace JSONL and
// Perfetto, flight-recorder CSV/JSONL, runtime timeline) and the result
// store's lines. They are golden-tested or content-addressed, so there
// is exactly one definition of how a number or a string is spelled.
//
// Doubles print as printf("%.17g") does in the C locale: 17 significant
// digits (max_digits10, so every finite double round-trips exactly),
// and unlike shortest-round-trip printing the spelling is a fixed
// function of the bits. write_double computes that spelling in integer
// arithmetic for the values the exports are made of: an integral value
// below 1e17 prints as its integer, and a value in [1e-4, 2^52) prints
// in fixed style from its exact 17-digit rounding (half to even). Every
// other value — exponent style, subnormals, inf and NaN — goes to
// std::to_chars(general, 17), which the standard specifies as that same
// printf. tests/obs_format_test.cpp keeps snprintf("%.17g") as the
// reference for both paths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace burst::obs_format {

/// The most chars write_double writes: "-d.dddddddddddddddde-308".
inline constexpr std::size_t kMaxDoubleChars = 24;

/// Writes @p v at @p out as printf("%.17g") spells it and returns the
/// end; @p out needs kMaxDoubleChars of room.
char* write_double(char* out, double v);

void append_double(std::string& out, double v);
void append_i64(std::string& out, std::int64_t v);
void append_u64(std::string& out, std::uint64_t v);

/// Appends @p s for use inside a JSON string: `"` and `\` get a
/// backslash, control characters become spaces. Names are generated
/// labels, but a hostile one must not break the line it lands in.
inline void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
}

}  // namespace burst::obs_format
