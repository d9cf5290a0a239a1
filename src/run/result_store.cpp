#include "src/run/result_store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <type_traits>

#include "src/obs/format.hpp"

namespace burst {
namespace {

// ---- Writing ----------------------------------------------------------

using obs_format::append_double;
using obs_format::append_escaped;
using obs_format::append_u64;

// `"name":<v>`, after a comma unless it opens an object.
template <typename T>
void append_field(std::string& out, const char* name, T v) {
  if (out.back() != '{') out += ',';
  out += '"';
  out += name;
  out += "\":";
  if constexpr (std::is_floating_point_v<T>) {
    append_double(out, v);
  } else {
    append_u64(out, v);
  }
}

// ---- Minimal JSON reader ----------------------------------------------
//
// Strict enough for the shard format: objects, arrays, strings, numbers.
// Numbers keep their raw token so integer fields can be re-parsed as
// uint64 without a double round-trip.

struct JsonReader {
  const char* p;
  const char* end;

  explicit JsonReader(const std::string& s)
      : p(s.data()), end(s.data() + s.size()) {}

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
  bool peek(char c) {
    skip_ws();
    return p < end && *p == c;
  }

  bool read_string(std::string* out) {
    if (!consume('"')) return false;
    out->clear();
    while (p < end && *p != '"') {
      if (*p == '\\') {
        ++p;
        if (p >= end) return false;
      }
      out->push_back(*p++);
    }
    return consume('"');
  }

  bool read_number_token(std::string* out) {
    skip_ws();
    const char* start = p;
    while (p < end && (std::isdigit(static_cast<unsigned char>(*p)) ||
                       *p == '-' || *p == '+' || *p == '.' || *p == 'e' ||
                       *p == 'E' || *p == 'x' || *p == 'n' || *p == 'a' ||
                       *p == 'i' || *p == 'f')) {
      ++p;  // accepts nan/inf tokens so they fail conversion, not parsing
    }
    if (p == start) return false;
    out->assign(start, p);
    return true;
  }
};

bool token_to_double(const std::string& tok, double* out) {
  char* rest = nullptr;
  errno = 0;
  const double v = std::strtod(tok.c_str(), &rest);
  if (rest != tok.c_str() + tok.size() || errno == ERANGE) return false;
  *out = v;
  return true;
}

bool token_to_u64(const std::string& tok, std::uint64_t* out) {
  if (tok.empty() || tok[0] == '-') return false;
  char* rest = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(tok.c_str(), &rest, 10);
  if (rest != tok.c_str() + tok.size() || errno == ERANGE) return false;
  *out = v;
  return true;
}

// Reads `"name":<number>` with an optional leading comma.
bool read_num_field(JsonReader& r, const char* name, std::string* tok) {
  r.consume(',');
  std::string key;
  if (!r.read_string(&key) || key != name) return false;
  if (!r.consume(':')) return false;
  return r.read_number_token(tok);
}

bool read_field(JsonReader& r, const char* name, double* out) {
  std::string tok;
  return read_num_field(r, name, &tok) && token_to_double(tok, out);
}

bool read_field(JsonReader& r, const char* name, std::uint64_t* out) {
  std::string tok;
  return read_num_field(r, name, &tok) && token_to_u64(tok, out);
}

}  // namespace
std::string result_to_json(const ExperimentResult& r) {
  std::string out = "{";
  for_each_result_field(r, [&out](const ResultField& f, const auto& v) {
    append_field(out, f.name, v);
  });
  out += ",\"delay\":{";
  append_field(out, "n", r.delay.count());
  append_field(out, "mean", r.delay.mean());
  append_field(out, "m2", r.delay.m2());
  append_field(out, "min", r.delay.min());
  append_field(out, "max", r.delay.max());
  out += "},\"cwnd_traces\":[";
  for (std::size_t i = 0; i < r.cwnd_traces.size(); ++i) {
    const TraceSeries& t = r.cwnd_traces[i];
    if (i) out += ',';
    out += "{\"name\":\"";
    append_escaped(out, t.name());
    out += "\",\"points\":[";
    bool first = true;
    for (const auto& [time, value] : t.points()) {
      if (!first) out += ',';
      first = false;
      out += '[';
      append_double(out, time);
      out += ',';
      append_double(out, value);
      out += ']';
    }
    out += "]}";
  }
  out += "],\"metrics\":[";
  for (std::size_t i = 0; i < r.metrics.points.size(); ++i) {
    const MetricPoint& m = r.metrics.points[i];
    if (i) out += ',';
    out += "{\"name\":\"";
    append_escaped(out, m.name);
    out += "\",\"kind\":";
    append_u64(out, static_cast<std::uint64_t>(m.kind));
    append_field(out, "value", m.value);
    append_field(out, "sum", m.sum);
    out += ",\"bounds\":[";
    for (std::size_t j = 0; j < m.bounds.size(); ++j) {
      if (j) out += ',';
      append_double(out, m.bounds[j]);
    }
    out += "],\"buckets\":[";
    for (std::size_t j = 0; j < m.buckets.size(); ++j) {
      if (j) out += ',';
      append_u64(out, m.buckets[j]);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

bool result_from_json(const std::string& json, ExperimentResult* out) {
  ExperimentResult r;
  JsonReader rd(json);
  if (!rd.consume('{')) return false;
  bool ok = true;
  for_each_result_field(r, [&](const ResultField& f, auto& v) {
    ok = ok && read_field(rd, f.name, &v);
  });
  if (!ok) return false;

  // delay accumulator.
  rd.consume(',');
  std::string key;
  if (!rd.read_string(&key) || key != "delay" || !rd.consume(':') ||
      !rd.consume('{')) {
    return false;
  }
  std::uint64_t n = 0;
  double mean = 0, m2 = 0, dmin = 0, dmax = 0;
  if (!read_field(rd, "n", &n)) return false;
  if (!read_field(rd, "mean", &mean)) return false;
  if (!read_field(rd, "m2", &m2)) return false;
  if (!read_field(rd, "min", &dmin)) return false;
  if (!read_field(rd, "max", &dmax)) return false;
  if (!rd.consume('}')) return false;
  r.delay = RunningStats::from_moments(n, mean, m2, dmin, dmax);

  // cwnd traces.
  rd.consume(',');
  if (!rd.read_string(&key) || key != "cwnd_traces" || !rd.consume(':') ||
      !rd.consume('[')) {
    return false;
  }
  while (!rd.peek(']')) {
    if (!r.cwnd_traces.empty() && !rd.consume(',')) return false;
    if (!rd.consume('{')) return false;
    std::string name;
    if (!rd.read_string(&key) || key != "name" || !rd.consume(':') ||
        !rd.read_string(&name)) {
      return false;
    }
    TraceSeries trace(name);
    if (!rd.consume(',') || !rd.read_string(&key) || key != "points" ||
        !rd.consume(':') || !rd.consume('[')) {
      return false;
    }
    bool first_point = true;
    while (!rd.peek(']')) {
      if (!first_point && !rd.consume(',')) return false;
      first_point = false;
      std::string t_tok, v_tok;
      double t = 0, v = 0;
      if (!rd.consume('[') || !rd.read_number_token(&t_tok) ||
          !rd.consume(',') || !rd.read_number_token(&v_tok) ||
          !rd.consume(']') || !token_to_double(t_tok, &t) ||
          !token_to_double(v_tok, &v)) {
        return false;
      }
      trace.record(t, v);
    }
    if (!rd.consume(']') || !rd.consume('}')) return false;
    r.cwnd_traces.push_back(std::move(trace));
  }
  if (!rd.consume(']')) return false;

  // metrics snapshot (v3). Every point carries all fields; counters and
  // gauges just have empty bounds/buckets.
  rd.consume(',');
  if (!rd.read_string(&key) || key != "metrics" || !rd.consume(':') ||
      !rd.consume('[')) {
    return false;
  }
  while (!rd.peek(']')) {
    if (!r.metrics.points.empty() && !rd.consume(',')) return false;
    if (!rd.consume('{')) return false;
    MetricPoint m;
    if (!rd.read_string(&key) || key != "name" || !rd.consume(':') ||
        !rd.read_string(&m.name)) {
      return false;
    }
    std::uint64_t kind = 0;
    if (!read_field(rd, "kind", &kind) || kind > 2) return false;
    m.kind = static_cast<MetricKind>(kind);
    if (!read_field(rd, "value", &m.value)) return false;
    if (!read_field(rd, "sum", &m.sum)) return false;
    rd.consume(',');
    if (!rd.read_string(&key) || key != "bounds" || !rd.consume(':') ||
        !rd.consume('[')) {
      return false;
    }
    bool first = true;
    while (!rd.peek(']')) {
      if (!first && !rd.consume(',')) return false;
      first = false;
      std::string tok;
      double v = 0;
      if (!rd.read_number_token(&tok) || !token_to_double(tok, &v)) {
        return false;
      }
      m.bounds.push_back(v);
    }
    if (!rd.consume(']')) return false;
    rd.consume(',');
    if (!rd.read_string(&key) || key != "buckets" || !rd.consume(':') ||
        !rd.consume('[')) {
      return false;
    }
    first = true;
    while (!rd.peek(']')) {
      if (!first && !rd.consume(',')) return false;
      first = false;
      std::string tok;
      std::uint64_t v = 0;
      if (!rd.read_number_token(&tok) || !token_to_u64(tok, &v)) return false;
      m.buckets.push_back(v);
    }
    if (!rd.consume(']') || !rd.consume('}')) return false;
    r.metrics.points.push_back(std::move(m));
  }
  if (!rd.consume(']') || !rd.consume('}')) return false;
  rd.skip_ws();
  if (rd.p != rd.end) return false;  // trailing garbage

  *out = std::move(r);
  return true;
}

// ---- Store ------------------------------------------------------------

namespace {

/// Splits the envelope `{"key":"<32 hex>","schema":N,"result":{...}}`.
/// We wrote it, so anything off-pattern is corruption.
bool parse_envelope(const std::string& line, ScenarioKey* key,
                    std::uint64_t* schema, std::string* payload) {
  const std::string key_prefix = "{\"key\":\"";
  if (line.rfind(key_prefix, 0) != 0 || line.size() <= 40) return false;
  if (!ScenarioKey::parse(std::string_view(line).substr(key_prefix.size(), 32),
                          key)) {
    return false;
  }
  const std::string schema_prefix = "\",\"schema\":";
  const std::size_t schema_at = key_prefix.size() + 32;
  if (line.compare(schema_at, schema_prefix.size(), schema_prefix) != 0) {
    return false;
  }
  const std::size_t num_at = schema_at + schema_prefix.size();
  const std::size_t comma = line.find(',', num_at);
  if (comma == std::string::npos ||
      !token_to_u64(line.substr(num_at, comma - num_at), schema)) {
    return false;
  }
  const std::string result_prefix = "\"result\":";
  if (line.compare(comma + 1, result_prefix.size(), result_prefix) != 0 ||
      line.back() != '}') {
    return false;
  }
  *payload = line.substr(comma + 1 + result_prefix.size(),
                         line.size() - comma - 2 - result_prefix.size());
  return true;
}

std::string render_envelope(const ScenarioKey& key, const std::string& json) {
  std::string line = "{\"key\":\"";
  line += key.hex();
  line += "\",\"schema\":";
  line += std::to_string(kResultSchemaVersion);
  line += ",\"result\":";
  line += json;
  line += "}\n";
  return line;
}

bool pread_all(int fd, char* buf, std::size_t n, std::uint64_t off) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t got = ::pread(fd, buf + done, n - done,
                                static_cast<off_t>(off + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;  // shrank under us (should not happen)
    done += static_cast<std::size_t>(got);
  }
  return true;
}

bool pwrite_all(int fd, const char* buf, std::size_t n, std::uint64_t off) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t wrote = ::pwrite(fd, buf + done, n - done,
                                   static_cast<off_t>(off + done));
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(wrote);
  }
  return true;
}

/// Takes advisory lock @p op on @p fd, blocking (retried on signals).
void lock_fd(int fd, int op) {
  while (::flock(fd, op) != 0 && errno == EINTR) {
  }
}

/// RAII advisory lock on an open fd (blocking).
class FlockGuard {
 public:
  FlockGuard(int fd, int op) : fd_(fd) { lock_fd(fd_, op); }
  ~FlockGuard() { ::flock(fd_, LOCK_UN); }
  FlockGuard(const FlockGuard&) = delete;
  FlockGuard& operator=(const FlockGuard&) = delete;

 private:
  int fd_;
};

}  // namespace

std::string ResultStore::segment_path(int segment) const {
  static const char* kHex = "0123456789abcdef";
  std::string path = dir_ + "/shard-";
  path += kHex[segment & 0xf];
  path += ".jsonl";
  return path;
}

std::string ResultStore::segment_path(const ScenarioKey& key) const {
  return segment_path(segment_of(key));
}

std::string ResultStore::claim_path(const ScenarioKey& key) const {
  return dir_ + "/claims/" + key.hex() + ".claim";
}

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    std::cerr << "result_store: cannot create " << dir_ << ": " << ec.message()
              << " (results will not be cached)\n";
    return;
  }
  has_dir_ = true;
  // A missing claims/ only means claim() has no lock to wait for.
  std::filesystem::create_directory(dir_ + "/claims", ec);
  for (int seg = 0; seg < kNumSegments; ++seg) read_segment(seg);
  if (skipped_ > 0) {
    std::cerr << "result_store: skipped " << skipped_
              << " corrupt/stale entr" << (skipped_ == 1 ? "y" : "ies")
              << " in " << dir_ << " (will re-simulate)\n";
  }
}

ResultStore::~ResultStore() {
  for (const auto& [key, fd] : claims_) ::close(fd);
}

void ResultStore::read_segment(int seg) {
  const std::string path = segment_path(seg);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;  // segment not created yet
  std::string buf;
  {
    FlockGuard lock(fd, LOCK_SH);
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return;
    }
    const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
    const std::uint64_t off = seg_offset_[static_cast<std::size_t>(seg)];
    if (size > off) {
      buf.resize(size - off);
      if (!pread_all(fd, buf.data(), buf.size(), off)) buf.clear();
    }
  }
  ::close(fd);

  // Consume whole lines only; a torn tail (crashed writer) stays pending
  // until the next writer heals it with a newline.
  const std::size_t last_nl = buf.rfind('\n');
  if (last_nl == std::string::npos) return;
  const std::size_t consumed = last_nl + 1;
  std::size_t start = 0;
  while (start < consumed) {
    const std::size_t nl = buf.find('\n', start);
    std::string line = buf.substr(start, nl - start);
    start = nl + 1;
    if (line.empty()) continue;
    ScenarioKey key;
    std::uint64_t schema = 0;
    std::string payload;
    ExperimentResult parsed;
    if (!parse_envelope(line, &key, &schema, &payload) ||
        schema != kResultSchemaVersion || !result_from_json(payload, &parsed)) {
      ++skipped_;
      continue;
    }
    entries_[key] = std::move(payload);
  }
  seg_offset_[static_cast<std::size_t>(seg)] += consumed;
}

std::optional<ExperimentResult> ResultStore::get(const ScenarioKey& key) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  ExperimentResult r;
  if (!result_from_json(it->second, &r)) return std::nullopt;
  return r;
}

bool ResultStore::append(const ScenarioKey& key, const std::string& payload) {
  const int seg = segment_of(key);
  const std::string path = segment_path(seg);
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    std::cerr << "result_store: cannot write " << path << '\n';
    return false;
  }
  const char* failure = nullptr;
  {
    FlockGuard lock(fd, LOCK_EX);
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
      failure = "cannot stat ";
    } else {
      const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
      // Heal a torn final line left by a crashed writer: our line starts
      // with a newline so the torn bytes become one (skippable) garbage
      // line instead of corrupting our entry.
      std::string line;
      char last = '\n';
      if (size > 0 && pread_all(fd, &last, 1, size - 1) && last != '\n') {
        line += '\n';
      }
      line += render_envelope(key, payload);
      if (!pwrite_all(fd, line.data(), line.size(), size)) {
        failure = "short write to ";
      } else {
        // Skip our own bytes on the next read. Anything a concurrent
        // writer appended before our lock sits below `size` and is picked
        // up by the next read_segment pass, which stops at offsets, not
        // at our entries (offset may lag but never overtakes).
        std::uint64_t& off = seg_offset_[static_cast<std::size_t>(seg)];
        if (off == size) off = size + line.size();
      }
    }
  }
  ::close(fd);
  if (failure) std::cerr << "result_store: " << failure << path << '\n';
  return failure == nullptr;
}

// ---- Claims -----------------------------------------------------------

bool ResultStore::claim(const ScenarioKey& key) {
  const int seg = segment_of(key);
  std::unique_lock<std::mutex> lk(mu_);
  read_segment(seg);
  if (entries_.count(key) > 0) return false;
  const std::string path = claim_path(key);
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return true;  // no lock to wait for: simulate
  lk.unlock();
  lock_fd(fd, LOCK_EX);  // waits out the owner, if any
  lk.lock();
  read_segment(seg);
  if (entries_.count(key) > 0) {
    // The owner published while we waited (or before our open, which
    // then made a fresh file). The key is stored, so the file may go.
    ::unlink(path.c_str());
    ::close(fd);
    return false;
  }
  claims_.emplace(key, fd);
  return true;
}

void ResultStore::publish(const ScenarioKey& key,
                          const ExperimentResult& result) {
  std::string payload = result_to_json(result);
  std::lock_guard<std::mutex> lk(mu_);
  const bool stored = has_dir_ && append(key, payload);
  entries_[key] = std::move(payload);
  drop_claim(key, stored);
}

void ResultStore::release(const ScenarioKey& key) {
  std::lock_guard<std::mutex> lk(mu_);
  drop_claim(key, /*stored=*/false);
}

void ResultStore::drop_claim(const ScenarioKey& key, bool stored) {
  const auto it = claims_.find(key);
  if (it == claims_.end()) return;
  if (stored) ::unlink(claim_path(key).c_str());
  ::close(it->second);
  claims_.erase(it);
}

}  // namespace burst
