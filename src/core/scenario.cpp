#include "src/core/scenario.hpp"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <sstream>
#include <type_traits>
#include <utility>

#include "src/net/packet.hpp"

namespace burst {

std::string to_string(Transport t) {
  switch (t) {
    case Transport::kUdp: return "UDP";
    case Transport::kTahoe: return "Tahoe";
    case Transport::kReno: return "Reno";
    case Transport::kNewReno: return "NewReno";
    case Transport::kVegas: return "Vegas";
    case Transport::kSack: return "Sack";
  }
  return "?";
}

std::string to_string(GatewayQueue q) {
  switch (q) {
    case GatewayQueue::kDropTail: return "FIFO";
    case GatewayQueue::kRed: return "RED";
    case GatewayQueue::kDrr: return "DRR";
  }
  return "?";
}

int Scenario::wire_bytes() const { return payload_bytes + kHeaderBytes; }

double Scenario::bottleneck_pps() const {
  return scaled_bottleneck_bw_bps() / (8.0 * wire_bytes());
}

double Scenario::meanfield_factor() const {
  if (meanfield_base <= 0) return 1.0;
  return static_cast<double>(num_clients) / static_cast<double>(meanfield_base);
}

double Scenario::scaled_bottleneck_bw_bps() const {
  // Early-out rather than *1.0 so base==0 is byte-for-byte the raw value
  // (multiplying by 1.0 is also exact, but the intent reads better).
  if (meanfield_base <= 0) return bottleneck_bw_bps;
  return bottleneck_bw_bps * meanfield_factor();
}

std::size_t Scenario::scaled_gateway_buffer() const {
  if (meanfield_base <= 0) return gateway_buffer;
  const double scaled =
      static_cast<double>(gateway_buffer) * meanfield_factor();
  return static_cast<std::size_t>(std::llround(scaled));
}

double Scenario::scaled_red_min_th() const {
  if (meanfield_base <= 0) return red_min_th;
  return red_min_th * meanfield_factor();
}

double Scenario::scaled_red_max_th() const {
  if (meanfield_base <= 0) return red_max_th;
  return red_max_th * meanfield_factor();
}

double Scenario::offered_pps() const {
  return static_cast<double>(num_clients) / mean_interarrival;
}

double Scenario::saturation_clients() const {
  return bottleneck_pps() * mean_interarrival;
}

Time Scenario::client_delay_for(int i) const {
  if (client_delay_spread <= 0.0 || num_clients < 2) return client_delay;
  const double position =
      2.0 * static_cast<double>(i) / static_cast<double>(num_clients - 1) -
      1.0;  // -1 .. +1 across the client population
  return client_delay * (1.0 + client_delay_spread * position);
}

std::string Scenario::label() const {
  std::ostringstream os;
  os << to_string(transport);
  if (delayed_ack) os << "/DelAck";
  if (gateway == GatewayQueue::kRed) {
    os << (adaptive_red ? "/ARED" : "/RED");
    if (ecn) os << "+ECN";
  } else if (gateway == GatewayQueue::kDrr) {
    os << "/DRR";
  }
  os << " N=" << num_clients;
  return os.str();
}

bool parse_number(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* rest = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &rest);
  if (rest != text.c_str() + text.size() || errno == ERANGE) return false;
  *out = v;
  return true;
}

namespace {

/// NUMBER followed by the first matching suffix of @p suffixes (scaled),
/// or a bare NUMBER. Suffixes that end another suffix must come first.
bool parse_with_suffix(
    const std::string& text,
    std::initializer_list<std::pair<std::string_view, double>> suffixes,
    double* out) {
  for (const auto& [suffix, scale] : suffixes) {
    const std::size_t n = suffix.size();
    if (text.size() <= n || text.compare(text.size() - n, n, suffix) != 0) {
      continue;
    }
    double v = 0.0;
    if (!parse_number(text.substr(0, text.size() - n), &v)) return false;
    *out = v * scale;
    return true;
  }
  return parse_number(text, out);
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text[0] == '-') return false;
  char* rest = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(text.c_str(), &rest, 10);
  if (rest != text.c_str() + text.size() || errno == ERANGE) return false;
  *out = v;
  return true;
}

bool parse_bool(const std::string& s, bool* out) {
  if (s == "true" || s == "1" || s == "on" || s == "yes") *out = true;
  else if (s == "false" || s == "0" || s == "off" || s == "no") *out = false;
  else return false;
  return true;
}

bool parse_queue(const std::string& s, GatewayQueue* out) {
  if (s == "fifo" || s == "droptail") *out = GatewayQueue::kDropTail;
  else if (s == "red") *out = GatewayQueue::kRed;
  else if (s == "drr") *out = GatewayQueue::kDrr;
  else return false;
  return true;
}

/// Reads @p text into @p out under @p rule; the member's type picks the
/// literal syntax. Leaves *out alone on failure.
template <typename T>
bool parse_field(const std::string& text, const FieldRule& rule, T* out) {
  if constexpr (std::is_same_v<T, bool>) {
    return parse_bool(text, out);
  } else if constexpr (std::is_same_v<T, Transport>) {
    return parse_transport(text, out);
  } else if constexpr (std::is_same_v<T, GatewayQueue>) {
    return parse_queue(text, out);
  } else {
    static_assert(std::is_same_v<T, int> || std::is_same_v<T, double> ||
                  std::is_unsigned_v<T>);
    double d = 0.0;
    std::uint64_t u = 0;
    bool ok = false;
    if constexpr (std::is_unsigned_v<T>) {
      ok = parse_u64(text, &u);
      d = static_cast<double>(u);
    } else {
      ok = rule.unit == FieldRule::Unit::kRate   ? parse_rate(text, &d)
           : rule.unit == FieldRule::Unit::kTime ? parse_time(text, &d)
                                                 : parse_number(text, &d);
      // An int takes whole numbers in its range only: checked before the
      // cast below.
      ok = ok && (!std::is_same_v<T, int> || whole_int(d, INT_MIN));
    }
    if (!ok || !rule.admits(d)) return false;
    *out = std::is_unsigned_v<T> ? static_cast<T>(u) : static_cast<T>(d);
    return true;
  }
}

/// Calls @p f(field, member) for the entry spelled @p name; false if
/// there is none.
template <typename S, typename F>
bool with_field(S&& sc, std::string_view name, F&& f) {
  bool found = false;
  for_each_scenario_field(sc, [&](const ScenarioField& field, auto& member) {
    if (found || !field.named(name)) return;
    found = true;
    f(field, member);
  });
  return found;
}

}  // namespace

bool parse_rate(const std::string& text, double* out) {
  return parse_with_suffix(
      text, {{"Gbps", 1e9}, {"Mbps", 1e6}, {"kbps", 1e3}, {"bps", 1.0}}, out);
}

bool parse_time(const std::string& text, double* out) {
  // "us" and "ms" end in 's' too: they are tried first.
  return parse_with_suffix(text, {{"us", 1e-6}, {"ms", 1e-3}, {"s", 1.0}},
                           out);
}

bool parse_transport(const std::string& s, Transport* out) {
  if (s == "udp") *out = Transport::kUdp;
  else if (s == "tahoe") *out = Transport::kTahoe;
  else if (s == "reno") *out = Transport::kReno;
  else if (s == "newreno") *out = Transport::kNewReno;
  else if (s == "vegas") *out = Transport::kVegas;
  else if (s == "sack") *out = Transport::kSack;
  else return false;
  return true;
}

bool whole_int(double d, double lo) {
  return d >= lo && d <= INT_MAX && d == std::floor(d);
}

bool apply_scenario_field(Scenario* sc, const std::string& field,
                          const std::string& value, std::string* msg) {
  const char* bad = nullptr;  // the rule's `what` once the value fails
  if (!with_field(*sc, field, [&](const ScenarioField& f, auto& member) {
        if (!parse_field(value, f.rule, &member)) bad = f.rule.what;
      })) {
    *msg = "unknown scenario field '" + field + "'";
    return false;
  }
  if (bad != nullptr) {
    *msg = "bad " + std::string(bad) + " '" + value + "' for field '" +
           field + "'";
    return false;
  }
  return true;
}

bool scenario_field_value(const Scenario& sc, std::string_view name,
                          double* out) {
  bool numeric = false;
  with_field(sc, name, [&](const ScenarioField& f, const auto& member) {
    using T = std::decay_t<decltype(member)>;
    if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
      numeric = true;
      *out = f.scaled != nullptr ? f.scaled(sc) : static_cast<double>(member);
    }
  });
  return numeric;
}

bool is_boolean_scenario_field(std::string_view name) {
  bool boolean = false;
  with_field(Scenario{}, name, [&](const ScenarioField&, const auto& member) {
    boolean = std::is_same_v<std::decay_t<decltype(member)>, bool>;
  });
  return boolean;
}

}  // namespace burst
