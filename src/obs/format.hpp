// Number and string formatting shared by every JSON or CSV text the
// simulator writes byte for byte: the src/obs exports (trace JSONL and
// Perfetto, flight-recorder CSV/JSONL, runtime timeline) and the result
// store's lines. They are golden-tested or content-addressed, so there
// is exactly one definition of how a number or a string is spelled.
//
// Doubles print with 17 significant digits, %g style: max_digits10, so
// every finite double round-trips exactly, and unlike shortest-round-trip
// printing the spelling is a fixed function of the bits. The
// std::to_chars overload taking (chars_format::general, precision) is
// specified as printf("%.{precision}g") in the C locale, so these bytes
// equal the snprintf("%.17g") the exports were first written with —
// tests/obs_format_test.cpp keeps snprintf as the reference — at a
// fraction of the cost (no format-string parse, no locale).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace burst::obs_format {

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
