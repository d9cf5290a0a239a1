#include "src/run/scenario_key.hpp"

#include <iomanip>
#include <sstream>
#include <type_traits>

namespace burst {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t derive_seed(std::uint64_t base_seed, std::string_view series,
                          std::int64_t point) {
  std::uint64_t h = splitmix64(base_seed);
  h = splitmix64(h ^ fnv1a64(series));
  h = splitmix64(h ^ static_cast<std::uint64_t>(point));
  return h;
}

std::string ScenarioKey::hex() const {
  std::ostringstream os;
  os << std::hex << std::setfill('0') << std::setw(16) << hi << std::setw(16)
     << lo;
  return os.str();
}

bool ScenarioKey::parse(std::string_view s, ScenarioKey* out) {
  if (s.size() != 32) return false;
  std::uint64_t parts[2] = {0, 0};
  for (int half = 0; half < 2; ++half) {
    for (int i = 0; i < 16; ++i) {
      const char c = s[16 * half + i];
      std::uint64_t digit = 0;
      if (c >= '0' && c <= '9') {
        digit = static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<std::uint64_t>(c - 'a' + 10);
      } else {
        return false;
      }
      parts[half] = (parts[half] << 4) | digit;
    }
  }
  out->hi = parts[0];
  out->lo = parts[1];
  return true;
}

namespace {

// Appends name=value; pairs. Doubles render as hexfloat: bit-exact, so
// the canonical string (and therefore the key) never depends on locale
// or decimal rounding.
class Canon {
 public:
  template <typename T>
  void field(std::string_view name, const T& v) {
    os_ << name << '=';
    if constexpr (std::is_same_v<T, double>) {
      os_ << std::hexfloat << v;
    } else if constexpr (std::is_same_v<T, bool>) {
      os_ << (v ? 1 : 0);
    } else if constexpr (std::is_enum_v<T>) {
      os_ << to_string(v);
    } else if constexpr (std::is_integral_v<T>) {
      os_ << std::dec << v;
    } else {
      os_ << v;  // text
    }
    os_ << ';';
  }
  std::string str() const { return os_.str(); }

 private:
  std::ostringstream os_;
};

}  // namespace

std::string canonical_string(const Scenario& s, const ExperimentOptions& opts) {
  Canon c;
  c.field("schema", kResultSchemaVersion);
  for_each_scenario_field(s, [&c](const ScenarioField& f, const auto& v) {
    if (f.keyed_when_zero || v != std::decay_t<decltype(v)>{}) {
      c.field(f.key, v);
    }
  });
  // Two experiment options the key once rendered, a cwnd trace client
  // list and a sample period, are gone: cwnd traces are read from the
  // event trace, which no key covers. Every stored key was written with
  // both empty, so their text stays, constant, to keep those keys.
  c.field("trace_clients", std::string());
  c.field("cwnd_sample_period", 0.0);
  // Parallel runs are deterministic per shard count but may order exact
  // same-instant ties differently than the sequential engine, so the
  // cache must key on the shard count. Appended only when > 1 so every
  // sequential scenario keeps its historical key byte-for-byte.
  if (opts.lp_shards > 1) c.field("lp_shards", opts.lp_shards);
  return c.str();
}

namespace {

ScenarioKey key_of_canonical(const std::string& canon) {
  ScenarioKey key;
  key.hi = fnv1a64(canon);
  // Second, independent hash: different FNV offset basis, then a splitmix
  // pass so the halves never agree by construction.
  key.lo = splitmix64(fnv1a64(canon, 0xcbf29ce484222325ULL ^ key.hi));
  return key;
}

}  // namespace

ScenarioKey scenario_key(const Scenario& s, const ExperimentOptions& opts) {
  return key_of_canonical(canonical_string(s, opts));
}

ScenarioKey scenario_key_with_topology(const Scenario& s,
                                       std::string_view topo_canonical,
                                       const ExperimentOptions& opts) {
  std::string canon = canonical_string(s, opts);
  canon += "topo_v=";
  canon += std::to_string(kTopoKeyVersion);
  canon += ";topo=";
  canon += topo_canonical;
  canon += ';';
  return key_of_canonical(canon);
}

}  // namespace burst
