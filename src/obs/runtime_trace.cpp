#include "src/obs/runtime_trace.hpp"

#include <ostream>
#include <string>

#include "src/obs/format.hpp"

namespace burst {

namespace {

using obs_format::append_double;
using obs_format::append_i64;

constexpr int kRuntimePid = 2;  // the packet trace owns pid 1
constexpr double kMicrosPerSec = 1e6;

}  // namespace

bool write_runtime_trace(
    std::ostream& os, const std::vector<LpStats>& stats,
    const std::vector<std::vector<LpWindowSample>>& windows) {
  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  auto meta = [&](const char* kind, int tid, const std::string& name) {
    sep();
    out += "{\"name\":\"";
    out += kind;
    out += "\",\"ph\":\"M\",\"pid\":";
    append_i64(out, kRuntimePid);
    out += ",\"tid\":";
    append_i64(out, tid);
    out += ",\"args\":{\"name\":\"";
    out += name;
    out += "\"}}";
  };
  meta("process_name", 0, "parallel runtime");
  const int lps = static_cast<int>(stats.size());
  for (int lp = 0; lp < lps; ++lp) {
    meta("thread_name", lp, "lp " + std::to_string(lp));
  }

  auto slice = [&](const char* name, int tid, double t0_s, double dur_s) {
    sep();
    out += "{\"name\":\"";
    out += name;
    out += "\",\"ph\":\"X\",\"ts\":";
    append_double(out, t0_s * kMicrosPerSec);
    out += ",\"dur\":";
    append_double(out, dur_s * kMicrosPerSec);
    out += ",\"pid\":";
    append_i64(out, kRuntimePid);
    out += ",\"tid\":";
    append_i64(out, tid);
    out += ",\"args\":{}}";
  };
  auto counter = [&](const std::string& name, double t_s,
                     const char* series, double v) {
    sep();
    out += "{\"name\":\"";
    out += name;
    out += "\",\"ph\":\"C\",\"ts\":";
    append_double(out, t_s * kMicrosPerSec);
    out += ",\"pid\":";
    append_i64(out, kRuntimePid);
    out += ",\"tid\":0,\"args\":{\"";
    out += series;
    out += "\":";
    append_double(out, v);
    out += "}}";
  };

  for (std::size_t lp = 0; lp < windows.size(); ++lp) {
    const int tid = static_cast<int>(lp);
    const std::string lp_tag = " lp" + std::to_string(lp);
    for (const LpWindowSample& w : windows[lp]) {
      double t = w.t0_s;
      slice("wait", tid, t, w.pub_wait_s);
      t += w.pub_wait_s;
      slice("run", tid, t, w.run_s);
      t += w.run_s;
      slice("barrier", tid, t, w.flush_wait_s);
      t += w.flush_wait_s;
      slice("merge", tid, t, w.merge_s);
      counter("gmin" + lp_tag, w.t0_s, "sim_s", w.gmin);
      counter("staged" + lp_tag, w.t0_s, "msgs",
              static_cast<double>(w.staged));
      if (out.size() >= (std::size_t{1} << 20)) {
        os << out;
        out.clear();
      }
    }
  }

  for (int lp = 0; lp < lps; ++lp) {
    const LpStats& p = stats[static_cast<std::size_t>(lp)];
    sep();
    out += "{\"name\":\"lp_summary\",\"ph\":\"i\",\"s\":\"t\",\"ts\":0,"
           "\"pid\":";
    append_i64(out, kRuntimePid);
    out += ",\"tid\":";
    append_i64(out, lp);
    out += ",\"args\":{\"events\":";
    append_i64(out, static_cast<std::int64_t>(p.events));
    out += ",\"windows\":";
    append_i64(out, static_cast<std::int64_t>(p.windows));
    out += ",\"msgs_in\":";
    append_i64(out, static_cast<std::int64_t>(p.msgs_in));
    out += ",\"msgs_out\":";
    append_i64(out, static_cast<std::int64_t>(p.msgs_out));
    out += ",\"merge_high_water\":";
    append_i64(out, static_cast<std::int64_t>(p.merge_high_water));
    out += ",\"horizon_advance_mean\":";
    append_double(out, horizon_advance_mean(p));
    out += ",\"run_s\":";
    append_double(out, p.run_s);
    out += ",\"wait_s\":";
    append_double(out, p.wait_s);
    out += "}}";
  }

  out += "\n]}\n";
  os << out;
  return static_cast<bool>(os);
}

}  // namespace burst
