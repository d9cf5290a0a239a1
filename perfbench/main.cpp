// perfbench: runs one benchmark workload, checks its outputs and prints
// every metric by name and unit. run.py builds this binary and drives it;
// see README.md for the workloads and what each metric should move.
//
// usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --work DIR --topo FILE
//
//   --trace 0  the untraced pass only: end-to-end metrics.
//   --trace 1  the same untraced pass plus one profiled pass: per-layer
//              metrics (call-boundary timings, Profiler self times,
//              runtime telemetry, model outputs, sum-to-whole residuals).
//
// The pass repeats the workload for --seconds (at least once). End-to-end
// times are normalized to the reference host's speed (see probed),
// per-layer times are medians. The last stdout line is one JSON object:
// {"workload", "seed", "attempted", "failed", "metrics": {name: {value,
// unit}}, "digests": {name: hex}}.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>

#include "adapter.hpp"

namespace pb = perfbench;

namespace {

// Executor threads for the paper campaign: two of the machine's four,
// which spread less run to run than four.
constexpr unsigned kCampaignThreads = 2;
// Planned points and unique scenarios of the Figs 2/3/4/13 campaign.
constexpr std::size_t kCampaignPlanned = 267;
constexpr std::size_t kCampaignUnique = 137;
// Mean-field run: N = 10^4 flows scaled from the N = 60 paper dumbbell.
constexpr int kMeanfieldClients = 10000;
constexpr const char* kMeanfieldHorizon = "1.5";
// Gateway drop fraction of the scaled dumbbell at N = 10^4 over the
// short horizon (slow start included): ~0.047, against ~0.035 over 10 s
// and ~0.27 for an unscaled bottleneck (see README.md).
constexpr double kMeanfieldDropLo = 0.03;
constexpr double kMeanfieldDropHi = 0.06;
// Extra set-up-only repetitions per run, so setup_s covers many set-ups
// even when the measured loop fits few iterations; the campaign's set-up
// takes milliseconds, so it repeats more.
constexpr int kSetupReps = 10;
constexpr int kCampaignSetupReps = 50;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks names and units).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"simsec_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"topo.parse_s", "s"},
    {"topo.partition_s", "s"},
    {"topo.build_s", "s"},
    {"sim.run_s", "s"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.peak_pending", "count"},
    {"sim.dispatch_self_s", "s"},
    {"transport.self_s", "s"},
    {"net.queue_self_s", "s"},
    {"other.self_s", "s"},
    {"obs.profiler_overhead", "ratio"},
    {"sim.lp_run_s", "s"},
    {"sim.lp_wait_s", "s"},
    {"sim.lp_wait_frac", "frac"},
    {"sim.lp_windows", "count"},
    {"sim.lp_msgs", "count"},
    {"sim.lp_chan_overflows", "count"},
    {"obs.attach_s", "s"},
    {"obs.merge_s", "s"},
    {"obs.jsonl_s", "s"},
    {"obs.perfetto_s", "s"},
    {"obs.records", "count"},
    {"obs.export_mb", "MB"},
    {"obs.dropped", "count"},
    {"run.store_open_s", "s"},
    {"run.plan_s", "s"},
    {"run.executor_util", "frac"},
    {"run.task_p50_s", "s"},
    {"run.task_max_s", "s"},
    {"run.warm_s", "s"},
    {"run.store_load_s", "s"},
    {"run.cache_hits", "count"},
    {"transport.arena_bytes_per_flow", "B"},
    {"transport.timeouts", "count"},
    {"transport.retransmits", "count"},
    {"net.drop_frac", "frac"},
    {"net.delivered", "count"},
    {"stats.cov", "ratio"},
    {"check.run_residual_frac", "frac"},
    {"check.setup_residual_frac", "frac"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work;
  std::string topo;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename T, typename F>
double median_of(const std::vector<T>& xs, F f) {
  std::vector<double> v;
  v.reserve(xs.size());
  for (const T& x : xs) v.push_back(static_cast<double>(f(x)));
  return median(std::move(v));
}

// ---------------------------------------------------------------------------
// Host speed. On a shared virtual machine each vCPU runs compute-bound code
// up to ~1.7x slower while its hardware sibling is busy with another
// tenant's work, switching state every few seconds and independently per
// vCPU; the share of slow seconds changes from minute to minute. The
// end-to-end times are therefore normalized: every timed call is bracketed
// by a fixed probe kernel on the same threads, and a run reports its total
// timed seconds times kProbeRefS over its mean probe seconds.

// Probe iterations: ~15 ms on an idle vCPU of the reference host.
constexpr int kProbeOps = 50000;
// The probe's seconds on an idle vCPU of the reference host (4-vCPU Intel
// Xeon VM, see README.md), so normalized times read as seconds there.
constexpr double kProbeRefS = 0.015;

/// One probe on the calling thread: formats doubles into a string, as the
/// trace exports do, calling nothing in the simulator. Returns its seconds.
double probe_once() {
  thread_local std::string text;
  text.clear();
  char buf[32];
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const double t = pb::now_s();
  for (int i = 0; i < kProbeOps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    std::snprintf(buf, sizeof buf, "%.17g", static_cast<double>(x >> 11) * 0x1p-53);
    text += buf;
  }
  return pb::now_s() - t;
}

/// Mean probe seconds over @p threads threads probing at once (the calling
/// thread and threads - 1 others), for work spread over that many vCPUs.
double probe_s(unsigned threads) {
  std::vector<double> s(threads, 0.0);
  std::vector<std::thread> others;
  for (unsigned i = 1; i < threads; ++i) {
    others.emplace_back([&s, i] { s[i] = probe_once(); });
  }
  s[0] = probe_once();
  for (std::thread& t : others) t.join();
  double sum = 0.0;
  for (const double v : s) sum += v;
  return sum / static_cast<double>(threads);
}

/// Calls @p f between two probes on @p threads threads; returns the mean
/// probe seconds around it.
template <typename F>
double probed(unsigned threads, F f) {
  const double before = probe_s(threads);
  f();
  return 0.5 * (before + probe_s(threads));
}

/// Σ seconds ÷ Σ probe seconds × kProbeRefS over @p xs: the timed seconds
/// of a run, per repetition, at the reference host's speed.
template <typename T, typename F, typename P>
double normalized_of(const std::vector<T>& xs, F seconds, P probe) {
  double t = 0.0;
  double p = 0.0;
  for (const T& x : xs) {
    t += seconds(x);
    p += probe(x);
  }
  return p > 0.0 ? t / p * kProbeRefS : 0.0;
}

double frac(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Output checks, metrics and digests of one run.
class Report {
 public:
  void check(const std::string& name, bool ok) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cout << "check FAILED: " << name << "\n";
    }
  }
  void set(const std::string& name, double value) { values_[name] = value; }
  void digest(const std::string& name, std::uint64_t v) {
    digests_[name] = hex64(v);
  }

  /// Prints the metrics of @p table (absent ones as 0, for layers the
  /// workload does not reach) and the result line.
  template <std::size_t N>
  void print(const Args& a, const MetricDef (&table)[N]) {
    std::ostringstream m;
    bool first = true;
    for (const MetricDef& d : table) {
      double v = values_.count(d.name) ? values_[d.name] : 0.0;
      check(std::string("finite ") + d.name, std::isfinite(v));
      if (!std::isfinite(v)) v = 0.0;
      std::cout << "metric " << d.name << " = " << num(v) << " " << d.unit
                << "\n";
      m << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": "
        << num(v) << ", \"unit\": \"" << d.unit << "\"}";
      first = false;
    }
    std::cout << "workload checks: " << attempted_ - failed_ << "/"
              << attempted_ << " passed\n";
    std::ostringstream dg;
    first = true;
    for (const auto& [k, v] : digests_) {
      std::cout << "digest " << k << " = " << v << "\n";
      dg << (first ? "" : ", ") << "\"" << k << "\": \"" << v << "\"";
      first = false;
    }
    std::cout << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
              << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
              << ", \"metrics\": {" << m.str() << "}, \"digests\": {"
              << dg.str() << "}}" << std::endl;
  }

 private:
  long attempted_ = 0;
  long failed_ = 0;
  std::map<std::string, double> values_;
  std::map<std::string, std::string> digests_;
};

// ---------------------------------------------------------------------------
// Single-scenario workloads (meanfield_n10k, fig02_traced_lp2).

/// True while one more repetition, at the mean length of the @p done so
/// far since @p t0, still ends within @p seconds.
bool another_fits(double t0, std::size_t done, double seconds) {
  const double elapsed = pb::now_s() - t0;
  return elapsed + elapsed / static_cast<double>(done) <= seconds;
}

struct SingleRun {
  pb::SingleTimes times;
  pb::SingleOutputs out;
  double probe_s = 0.0;  // mean probe seconds around it (probed)
};

/// Fingerprint of everything a speed-only change must leave unchanged.
std::uint64_t outputs_digest(const pb::SingleOutputs& o) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::uint64_t v : {o.events, o.delivered, o.gw_arrivals,
                                o.gw_drops, o.timeouts, o.jsonl_hash}) {
    h = pb::fnv1a(&v, sizeof v, h);
  }
  return h;
}

bool run_checked(const pb::SingleInput& in, SingleRun* r, Report& rep) {
  std::string error;
  const bool ok = pb::run_single(in, &r->times, &r->out, &error);
  rep.check(in.name + " builds and runs", ok);
  if (!ok) std::cerr << "perfbench: " << error << "\n";
  return ok;
}

/// One run between host-speed probes (one thread: the exports and the
/// sequential parts run on the calling thread).
bool run_at_speed(const pb::SingleInput& in, SingleRun* r, Report& rep) {
  bool ok = false;
  r->probe_s = probed(1, [&] { ok = run_checked(in, r, rep); });
  return ok;
}

/// The untraced pass: set-up-only repetitions, then whole runs until
/// @p seconds have elapsed. Every run must reproduce the first exactly.
std::vector<SingleRun> measure_single(const pb::SingleInput& in,
                                      double seconds, Report& rep,
                                      std::vector<SingleRun>* setups) {
  pb::SingleInput setup_in = in;
  setup_in.setup_only = true;
  for (int i = 0; i < kSetupReps; ++i) {
    SingleRun r;
    if (!run_at_speed(setup_in, &r, rep)) return {};
    setups->push_back(r);
  }
  std::vector<SingleRun> runs;
  const double t0 = pb::now_s();
  do {
    SingleRun r;
    if (!run_at_speed(in, &r, rep)) return {};
    setups->push_back(r);
    if (runs.empty()) rep.set("peak_rss_mb", pb::peak_rss_mb());
    std::cout << "iteration " << runs.size() << ": setup " << num(r.times.setup_s)
              << " s, run " << num(r.times.run_s) << " s, wall "
              << num(r.times.wall_s) << " s (merge " << num(r.times.merge_s)
              << ", jsonl " << num(r.times.jsonl_s) << ", perfetto "
              << num(r.times.perfetto_s) << "), probe " << num(r.probe_s)
              << " s\n";
    if (!runs.empty()) {
      rep.check("run repeats the first run exactly",
                outputs_digest(r.out) == outputs_digest(runs.front().out));
    }
    runs.push_back(r);
  } while (another_fits(t0, runs.size(), seconds));
  return runs;
}

void single_metrics(const pb::SingleInput& in, const Args& a, Report& rep,
                    const std::function<void(const pb::SingleOutputs&)>&
                        check_outputs) {
  std::vector<SingleRun> setups;
  const std::vector<SingleRun> runs = measure_single(in, a.seconds, rep, &setups);
  if (runs.empty()) return;
  const pb::SingleOutputs& o = runs.front().out;
  check_outputs(o);
  rep.check("no routing errors", o.routing_errors == 0);
  rep.check("simulated events", o.events > 0);
  rep.digest(a.workload, outputs_digest(o));

  const double run_s = median_of(runs, [](auto& r) { return r.times.run_s; });
  const auto probe = [](auto& r) { return r.probe_s; };
  const double wall_s =
      normalized_of(runs, [](auto& r) { return r.times.wall_s; }, probe);
  rep.set("setup_s",
          normalized_of(setups, [](auto& s) { return s.times.setup_s; }, probe));
  rep.set("wall_s", wall_s);
  rep.set("simsec_per_s", o.horizon_s / wall_s);
  if (!a.trace) return;

  // ---- per-layer: call-boundary timings of the untraced pass. ----------
  rep.set("topo.parse_s",
          median_of(setups, [](auto& s) { return s.times.parse_s; }));
  rep.set("topo.partition_s",
          median_of(setups, [](auto& s) { return s.times.partition_s; }));
  rep.set("topo.build_s",
          median_of(setups, [](auto& s) { return s.times.build_s; }));
  rep.set("obs.attach_s",
          median_of(setups, [](auto& s) { return s.times.attach_s; }));
  rep.set("check.setup_residual_frac", median_of(setups, [](auto& s) {
            const pb::SingleTimes& t = s.times;
            return frac(t.setup_s - t.parse_s - t.partition_s - t.build_s -
                            t.attach_s,
                        t.setup_s);
          }));
  rep.set("sim.run_s", run_s);
  rep.set("sim.events", static_cast<double>(o.events));
  rep.set("sim.ns_per_event", run_s * 1e9 / static_cast<double>(o.events));
  rep.set("sim.peak_pending", static_cast<double>(o.peak_pending));
  rep.set("sim.lp_run_s", median_of(runs, [](auto& r) { return r.out.lp_run_s; }));
  rep.set("sim.lp_wait_s",
          median_of(runs, [](auto& r) { return r.out.lp_wait_s; }));
  rep.set("sim.lp_wait_frac", median_of(runs, [](auto& r) {
            return frac(r.out.lp_wait_s, r.out.lp_run_s + r.out.lp_wait_s);
          }));
  rep.set("sim.lp_windows", static_cast<double>(o.lp_windows));
  rep.set("sim.lp_msgs", static_cast<double>(o.lp_msgs));
  rep.set("sim.lp_chan_overflows",
          median_of(runs, [](auto& r) { return r.out.lp_chan_overflows; }));
  rep.set("obs.merge_s", median_of(runs, [](auto& r) { return r.times.merge_s; }));
  rep.set("obs.jsonl_s", median_of(runs, [](auto& r) { return r.times.jsonl_s; }));
  rep.set("obs.perfetto_s",
          median_of(runs, [](auto& r) { return r.times.perfetto_s; }));
  rep.set("obs.records", static_cast<double>(o.trace_records));
  rep.set("obs.export_mb", static_cast<double>(o.export_bytes) / 1e6);
  rep.set("obs.dropped", static_cast<double>(o.trace_dropped));
  rep.set("transport.arena_bytes_per_flow", o.arena_bytes_per_flow);
  rep.set("transport.timeouts", static_cast<double>(o.timeouts));
  rep.set("transport.retransmits", static_cast<double>(o.retransmits));
  rep.set("net.drop_frac", frac(static_cast<double>(o.gw_drops),
                                static_cast<double>(o.gw_arrivals)));
  rep.set("net.delivered", static_cast<double>(o.delivered));
  rep.set("stats.cov", o.cov);

  // ---- per-layer: the profiled pass. -----------------------------------
  pb::SingleInput prof_in = in;
  prof_in.profile = true;
  SingleRun p;
  if (!run_checked(prof_in, &p, rep)) return;
  rep.check("profiled run reproduces the untraced run",
            outputs_digest(p.out) == outputs_digest(o));
  const pb::ProfileSplit& s = p.out.profile;
  rep.set("sim.dispatch_self_s", s.dispatch_s);
  rep.set("transport.self_s", s.transport_s);
  rep.set("net.queue_self_s", s.queue_s);
  rep.set("other.self_s", s.other_s);
  rep.set("obs.profiler_overhead", frac(p.times.run_s, run_s));
  rep.set("check.run_residual_frac",
          frac(p.times.run_s - s.sum(), p.times.run_s));
}

void meanfield_n10k(const Args& a, Report& rep) {
  pb::SingleInput in;
  in.name = "meanfield_n10k";
  in.fields = {{"clients", std::to_string(kMeanfieldClients)},
               {"meanfield_base", "60"},
               {"transport", "reno"},
               {"queue", "red"},
               {"duration", kMeanfieldHorizon},
               {"warmup", "0.5"},
               {"seed", std::to_string(a.seed)}};
  single_metrics(in, a, rep, [&rep](const pb::SingleOutputs& o) {
    const double drop = frac(static_cast<double>(o.gw_drops),
                             static_cast<double>(o.gw_arrivals));
    std::cout << "meanfield_n10k drop_frac = " << num(drop) << "\n";
    rep.check("mean-field drop fraction in [0.03, 0.06]",
              drop >= kMeanfieldDropLo && drop <= kMeanfieldDropHi);
    rep.check("all flows built", o.flows == kMeanfieldClients);
  });
}

void fig02_traced_lp2(const Args& a, Report& rep) {
  std::ifstream f(a.topo);
  std::stringstream text;
  text << f.rdbuf();
  rep.check("topology file readable", f.good() && !text.str().empty());
  pb::SingleInput in;
  in.name = "dumbbell_n60";
  in.topo_text = text.str();
  in.fields = {{"transport", "reno"},
               {"queue", "red"},
               {"seed", std::to_string(a.seed)}};
  in.lp_shards = 2;
  in.trace = true;
  single_metrics(in, a, rep, [&](const pb::SingleOutputs& o) {
    rep.check("ran on 2 LPs", o.lp_shards == 2);
    rep.check("trace ring dropped nothing", o.trace_dropped == 0);
    rep.check("trace recorded", o.trace_records > 0);
    // An untimed sequential reference run must export the same lines.
    // Their order is not checked: for some seeds the merge swaps
    // same-instant records against the sequential order (README.md).
    pb::SingleInput ref = in;
    ref.lp_shards = 1;
    SingleRun r;
    if (!run_checked(ref, &r, rep)) return;
    rep.check("lp2 JSONL lines equal the lp1 JSONL lines",
              r.out.jsonl_lines_hash == o.jsonl_lines_hash);
    if (r.out.jsonl_hash != o.jsonl_hash) {
      std::cout << "note: lp2 JSONL record order differs from lp1\n";
    }
    rep.check("lp2 events equal lp1 events", r.out.events == o.events);
  });
}

// ---------------------------------------------------------------------------
// paper_campaign.

struct CampaignIter {
  pb::CampaignRun cold;
  pb::CampaignRun warm;
  double store_load_s = 0.0;
  double probe_s = 0.0;  // mean probe seconds around the cold run
};

struct CampaignSetup {
  pb::CampaignSetupTimes t;
  double probe_s = 0.0;
};

void paper_campaign(const Args& a, Report& rep) {
  namespace fs = std::filesystem;
  const fs::path work = fs::path(a.work) / "paper_campaign";
  fs::remove_all(work);
  fs::create_directories(work);

  std::vector<CampaignSetup> setups;
  pb::CampaignPlan plan;
  auto plan_at_speed = [&](const std::string& dir) {
    CampaignSetup s;
    s.probe_s = probed(1, [&] { plan = pb::plan_campaign(dir, a.seed, &s.t); });
    setups.push_back(s);
  };
  for (int i = 0; i < kCampaignSetupReps; ++i) {
    plan_at_speed((work / ("setup-" + std::to_string(i))).string());
    rep.check("campaign plans 267 points, 137 unique scenarios",
              plan.planned == kCampaignPlanned && plan.unique == kCampaignUnique);
  }

  std::vector<CampaignIter> iters;
  const double t0 = pb::now_s();
  do {
    const std::string dir = (work / ("store-" + std::to_string(iters.size()))).string();
    plan_at_speed(dir);
    CampaignIter it;
    it.probe_s = probed(kCampaignThreads, [&] {
      it.cold = pb::run_campaign(plan, dir, kCampaignThreads, false);
    });
    it.warm = pb::run_campaign(plan, dir, kCampaignThreads, false);
    std::size_t entries = 0;
    it.store_load_s = pb::load_store(dir, &entries);
    rep.check("cold run simulates every unique scenario",
              it.cold.simulated == kCampaignUnique && it.cold.cache_hits == 0);
    rep.check("cold run yields 137 unique results", it.cold.unique == kCampaignUnique);
    rep.check("warm replay is all cache hits",
              it.warm.cache_hits == kCampaignUnique && it.warm.simulated == 0);
    rep.check("warm digest equals cold digest", it.warm.digest == it.cold.digest);
    rep.check("store holds 137 results", entries == kCampaignUnique);
    rep.check("no routing errors", it.cold.routing_errors == 0);
    if (!iters.empty()) {
      rep.check("cold run repeats the first run exactly",
                it.cold.digest == iters.front().cold.digest);
    }
    if (iters.empty()) rep.set("peak_rss_mb", pb::peak_rss_mb());
    std::cout << "iteration " << iters.size() << ": setup "
              << num(setups.back().t.setup_s) << " s, wall "
              << num(it.cold.wall_s) << " s (warm " << num(it.warm.wall_s)
              << " s), probe " << num(it.probe_s) << " s\n";
    iters.push_back(it);
    fs::remove_all(dir);
  } while (another_fits(t0, iters.size(), a.seconds));

  const pb::CampaignRun& c = iters.front().cold;
  rep.digest("paper_campaign", c.digest);
  const auto probe = [](auto& x) { return x.probe_s; };
  const double wall_s =
      normalized_of(iters, [](auto& i) { return i.cold.wall_s; }, probe);
  rep.set("setup_s",
          normalized_of(setups, [](auto& s) { return s.t.setup_s; }, probe));
  rep.set("wall_s", wall_s);
  rep.set("simsec_per_s",
          static_cast<double>(c.unique) * plan.sim_seconds / wall_s);
  if (!a.trace) {
    fs::remove_all(work);
    return;
  }

  const double run_s = median_of(iters, [](auto& i) { return i.cold.sim_wall_s; });
  rep.set("run.store_open_s",
          median_of(setups, [](auto& s) { return s.t.store_open_s; }));
  rep.set("run.plan_s", median_of(setups, [](auto& s) { return s.t.plan_s; }));
  rep.set("check.setup_residual_frac", median_of(setups, [](auto& s) {
            const pb::CampaignSetupTimes& t = s.t;
            return frac(t.setup_s - t.store_open_s - t.plan_s, t.setup_s);
          }));
  rep.set("sim.run_s", run_s);
  rep.set("sim.events", static_cast<double>(c.events));
  rep.set("sim.ns_per_event", run_s * 1e9 / static_cast<double>(c.events));
  rep.set("sim.peak_pending", static_cast<double>(c.peak_pending));
  rep.set("run.executor_util", median_of(iters, [](auto& i) {
            return frac(i.cold.sim_wall_s, kCampaignThreads * i.cold.wall_s);
          }));
  rep.set("run.task_p50_s", median_of(iters, [](auto& i) {
            return median(i.cold.task_sim_wall_s);
          }));
  rep.set("run.task_max_s", median_of(iters, [](auto& i) {
            const auto& t = i.cold.task_sim_wall_s;
            return t.empty() ? 0.0 : *std::max_element(t.begin(), t.end());
          }));
  rep.set("run.warm_s", median_of(iters, [](auto& i) { return i.warm.wall_s; }));
  rep.set("run.store_load_s",
          median_of(iters, [](auto& i) { return i.store_load_s; }));
  rep.set("run.cache_hits", static_cast<double>(iters.front().warm.cache_hits));
  rep.set("transport.timeouts", static_cast<double>(c.timeouts));
  rep.set("transport.retransmits", static_cast<double>(c.retransmits));
  rep.set("net.drop_frac", frac(static_cast<double>(c.gw_drops),
                                static_cast<double>(c.gw_arrivals)));
  rep.set("net.delivered", static_cast<double>(c.delivered));
  rep.set("stats.cov", c.mean_cov);

  // ---- the profiled pass: a cold campaign with per-task Profilers. -----
  const std::string dir = (work / "profiled").string();
  pb::CampaignSetupTimes t;
  plan = pb::plan_campaign(dir, a.seed, &t);
  const pb::CampaignRun p = pb::run_campaign(plan, dir, kCampaignThreads, true);
  rep.check("profiled campaign reproduces the untraced one",
            p.digest == c.digest && p.events == c.events &&
                p.delivered == c.delivered);
  rep.set("sim.dispatch_self_s", p.profile.dispatch_s);
  rep.set("transport.self_s", p.profile.transport_s);
  rep.set("net.queue_self_s", p.profile.queue_s);
  rep.set("other.self_s", p.profile.other_s);
  rep.set("obs.profiler_overhead",
          frac(p.wall_s, median_of(iters, [](auto& i) { return i.cold.wall_s; })));
  // Per-task Profilers cover build + run + result collection, the timed
  // run calls only the run: the residual is negative by the build share.
  rep.set("check.run_residual_frac",
          frac(p.sim_wall_s - p.profile.sum(), p.sim_wall_s));
  fs::remove_all(work);
}

bool parse_args(int argc, char** argv, Args* a) try {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::stoull(v);
    } else if (k == "--seconds") {
      a->seconds = std::stod(v);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--work") {
      a->work = v;
    } else if (k == "--topo") {
      a->topo = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->work.empty();
} catch (const std::logic_error&) {  // stoull/stod on a malformed number
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the process, so repetitions reuse pages instead
  // of faulting fresh ones in: the traced run frees ~1 GB per repetition,
  // and first-touch page faults swing by a third with the host's load.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work DIR --topo FILE\n";
    return 2;
  }
  const std::map<std::string, void (*)(const Args&, Report&)> workloads = {
      {"paper_campaign", paper_campaign},
      {"meanfield_n10k", meanfield_n10k},
      {"fig02_traced_lp2", fig02_traced_lp2},
  };
  const auto w = workloads.find(a.workload);
  if (w == workloads.end()) {
    std::cerr << "perfbench: unknown workload " << a.workload << "\n";
    return 2;
  }
  Report rep;
  w->second(a, rep);
  if (a.trace) {
    rep.print(a, kPerLayer);
  } else {
    rep.print(a, kEndToEnd);
  }
  return 0;
}
