#include "src/run/result_store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <type_traits>
#include <vector>

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
    const ssize_t put = ::pwrite(fd, buf + done, n - done,
                                 static_cast<off_t>(off + done));
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(put);
  }
  return true;
}

/// RAII advisory lock on an open fd (blocking).
class FlockGuard {
 public:
  FlockGuard(int fd, int op) : fd_(fd) {
    while (::flock(fd_, op) != 0 && errno == EINTR) {
    }
  }
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
              << " (cache disabled for reads)\n";
    return;
  }
  for (int seg = 0; seg < kNumSegments; ++seg) {
    refresh_segment(seg, /*keep_dirty=*/false);
  }
  if (skipped_ > 0) {
    std::cerr << "result_store: skipped " << skipped_
              << " corrupt/stale entr" << (skipped_ == 1 ? "y" : "ies")
              << " in " << dir_ << " (will re-simulate)\n";
  }
}

ResultStore::~ResultStore() {
  std::lock_guard<std::mutex> lk(mu_);
  if (!dirty_keys_.empty()) flush_locked();
}

void ResultStore::refresh_segment(int seg, bool keep_dirty) {
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
    if (keep_dirty && dirty_keys_.count(key) > 0) continue;
    entries_[key] = std::move(payload);
  }
  seg_offset_[static_cast<std::size_t>(seg)] += consumed;
}

void ResultStore::refresh() {
  std::lock_guard<std::mutex> lk(mu_);
  for (int seg = 0; seg < kNumSegments; ++seg) {
    refresh_segment(seg, /*keep_dirty=*/true);
  }
}

std::optional<ExperimentResult> ResultStore::get(const ScenarioKey& key) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  ExperimentResult r;
  if (!result_from_json(it->second, &r)) return std::nullopt;
  return r;
}

bool ResultStore::contains(const ScenarioKey& key) const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.count(key) > 0;
}

void ResultStore::put(const ScenarioKey& key, const ExperimentResult& result) {
  std::lock_guard<std::mutex> lk(mu_);
  entries_[key] = result_to_json(result);
  dirty_keys_.insert(key);
}

bool ResultStore::flush() {
  std::lock_guard<std::mutex> lk(mu_);
  return flush_locked();
}

bool ResultStore::flush_locked() {
  if (dirty_keys_.empty()) return true;
  // Group the dirty set by segment so each segment is locked once.
  std::array<std::vector<ScenarioKey>, kNumSegments> by_seg;
  for (const ScenarioKey& key : dirty_keys_) {
    by_seg[static_cast<std::size_t>(segment_of(key))].push_back(key);
  }
  bool ok = true;
  for (int seg = 0; seg < kNumSegments; ++seg) {
    auto& keys = by_seg[static_cast<std::size_t>(seg)];
    if (keys.empty()) continue;
    const std::string path = segment_path(seg);
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0) {
      std::cerr << "result_store: cannot write " << path << '\n';
      ok = false;
      continue;
    }
    {
      FlockGuard lock(fd, LOCK_EX);
      struct stat st{};
      if (::fstat(fd, &st) != 0) {
        std::cerr << "result_store: cannot stat " << path << '\n';
        ::close(fd);
        ok = false;
        continue;
      }
      const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
      // Heal a torn final line left by a crashed writer: our batch starts
      // with a newline so the torn bytes become one (skippable) garbage
      // line instead of corrupting our first entry.
      bool need_heal = false;
      if (size > 0) {
        char last = '\n';
        if (pread_all(fd, &last, 1, size - 1)) need_heal = last != '\n';
      }
      std::string batch;
      if (need_heal) batch += '\n';
      for (const ScenarioKey& key : keys) {
        batch += render_envelope(key, entries_[key]);
      }
      if (!pwrite_all(fd, batch.data(), batch.size(), size)) {
        std::cerr << "result_store: short write to " << path << '\n';
        ::close(fd);
        ok = false;
        continue;
      }
      // Skip our own bytes on the next refresh. Anything a concurrent
      // writer appended before our lock sits below `size` and is picked
      // up by the next refresh_segment pass, which stops at offsets, not
      // at our entries (offset may lag but never overtakes).
      if (seg_offset_[static_cast<std::size_t>(seg)] == size) {
        seg_offset_[static_cast<std::size_t>(seg)] = size + batch.size();
      }
    }
    ::close(fd);
    for (const ScenarioKey& key : keys) dirty_keys_.erase(key);
  }
  return ok;
}

// ---- Claims -----------------------------------------------------------

namespace {

/// True when the claim at @p path no longer protects live work: its
/// recorded pid is gone, or it stayed empty past the TTL.
bool claim_is_stale(const std::string& path, double empty_ttl) {
  std::ifstream in(path);
  if (!in) return true;  // vanished: owner released it
  std::string tag;
  long long pid = 0;
  if (in >> tag >> pid && tag == "pid" && pid > 0) {
    if (::kill(static_cast<pid_t>(pid), 0) == 0) return false;  // alive
    return errno == ESRCH;  // EPERM = alive under another uid
  }
  // Empty or garbled: the owner crashed between create and write, or is
  // about to write. Give it the TTL.
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return true;
  const double age =
      std::difftime(std::time(nullptr), static_cast<std::time_t>(st.st_mtime));
  return age > empty_ttl;
}

}  // namespace

bool ResultStore::steal_stale_claim(const std::string& path) {
  const std::string lock_path = dir_ + "/claims/.steal.lock";
  const int fd = ::open(lock_path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) return false;
  bool stolen = false;
  {
    FlockGuard lock(fd, LOCK_EX);
    // Re-check under the lock: another worker may have stolen and
    // re-claimed (a live claim) in the window.
    if (claim_is_stale(path, kEmptyClaimTtl)) {
      ::unlink(path.c_str());  // ENOENT is fine — same outcome
      stolen = true;
    }
  }
  ::close(fd);
  return stolen;
}

ClaimStatus ResultStore::try_claim(const ScenarioKey& key) {
  std::lock_guard<std::mutex> lk(mu_);
  refresh_segment(segment_of(key), /*keep_dirty=*/true);
  if (entries_.count(key) > 0) return ClaimStatus::kDone;
  std::error_code ec;
  std::filesystem::create_directories(dir_ + "/claims", ec);
  if (ec) return ClaimStatus::kBusy;
  const std::string path = claim_path(key);
  for (int attempt = 0; attempt < 2; ++attempt) {
    const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd >= 0) {
      const std::string body = "pid " + std::to_string(::getpid()) + "\n";
      if (!pwrite_all(fd, body.data(), body.size(), 0)) {
        ::close(fd);
        ::unlink(path.c_str());
        return ClaimStatus::kBusy;
      }
      ::close(fd);
      return ClaimStatus::kAcquired;
    }
    if (errno != EEXIST) return ClaimStatus::kBusy;
    // Someone holds it. A fresh look at the store first: they may have
    // published and released between our refresh and the open.
    refresh_segment(segment_of(key), /*keep_dirty=*/true);
    if (entries_.count(key) > 0) return ClaimStatus::kDone;
    if (!claim_is_stale(path, kEmptyClaimTtl)) return ClaimStatus::kBusy;
    if (!steal_stale_claim(path)) return ClaimStatus::kBusy;
    // Stolen: retry the exclusive create (racing stealers converge here).
  }
  return ClaimStatus::kBusy;
}

void ResultStore::publish(const ScenarioKey& key,
                          const ExperimentResult& result) {
  std::lock_guard<std::mutex> lk(mu_);
  entries_[key] = result_to_json(result);
  dirty_keys_.insert(key);
  flush_locked();
  ::unlink(claim_path(key).c_str());
}

void ResultStore::abandon(const ScenarioKey& key) {
  ::unlink(claim_path(key).c_str());
}

}  // namespace burst
