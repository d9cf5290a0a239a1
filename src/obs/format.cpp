#include "src/obs/format.hpp"

#include <charconv>

namespace burst::obs_format {

void append_double(std::string& out, double v) {
  char buf[32];  // "-d.dddddddddddddddde-308" is 24 chars
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out.append(buf, r.ptr);
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
