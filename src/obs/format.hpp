// Number formatting shared by every src/obs export (trace JSONL and
// Perfetto, flight-recorder CSV/JSONL, runtime timeline). Private to
// src/obs: the exports are golden-tested byte for byte, so there is
// exactly one definition of how a number is spelled.
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

namespace burst::obs_format {

void append_double(std::string& out, double v);
void append_i64(std::string& out, std::int64_t v);
void append_u64(std::string& out, std::uint64_t v);

}  // namespace burst::obs_format
