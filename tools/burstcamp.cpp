// burstcamp: runs the whole paper figure set (Figs 2, 3, 4, 13) as one
// cached campaign. A cold run simulates each unique scenario exactly
// once (Figs 3/4/13 share all of theirs); a warm rerun is served
// entirely from the content-addressed result cache. See --help.
#include <climits>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cli.hpp"
#include "src/core/report.hpp"
#include "src/run/campaign.hpp"
#include "src/run/result_store.hpp"
#include "src/topo/campaign.hpp"
#include "src/topo/parser.hpp"

namespace {

constexpr const char* kUsage =
    R"(usage: burstcamp [options]

Runs the paper's figure campaign (fig02_cov, fig03_throughput, fig04_loss,
fig13_timeout_dupack) with cross-figure deduplication and an on-disk
result cache, and writes per-figure CSVs plus manifest.json.

With --campaign=FILE, runs a declarative .camp spec instead: scenario
.topo files x sweep axes, on the same engine, so several burstcamp
processes pointed at one --cache-dir split the points between them with
zero duplicated simulations (and a killed worker's points are picked up
on the next run). --lp and --profile apply to both; --duration, --seed
and --only shape the built-in figure set only (a .camp file sets its own
duration and seed).

options:
  --campaign=FILE   run a .camp campaign spec (see examples/topologies)
  --out=DIR         artifact directory            (default: campaign_out)
  --cache-dir=DIR   result cache location         (default: <out>/cache)
  --no-cache        ignore and do not write the result cache
  --threads=N       worker threads, 0..1024       (default 0: all cores)
  --lp=N            logical processes per scenario (conservative parallel
                    engine; default 1 = sequential; salts the cache key)
  --duration=SECS   simulated seconds per run     (default: paper's 20)
  --seed=N          base RNG seed                 (default: 1)
  --only=NAME[,..]  run a subset of the figures, e.g. --only=fig02_cov
  --profile         attribute simulation wall time to hot-path phases
                    (dispatch/transport/queue) and print the breakdown
  --list            print the figure set and exit
  --print           print each figure's table to stdout (default: summary only)
  --quiet           suppress progress lines
  --help            this text
)";

// --threads ceiling: far above any core count, so a larger value is a
// typo the Executor would otherwise try to spawn.
constexpr int kMaxThreads = 1024;

bool parse_flag(const std::string& arg, const std::string& name,
                std::string* value) {
  const std::string prefix = name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

/// The summary rows both campaign kinds share: the per-phase profile
/// split (when profiled) and one row per logical process (lp > 1).
void append_engine_rows(const burst::CampaignStats& st, bool profile,
                        std::vector<std::vector<std::string>>* rows) {
  using namespace burst;
  if (profile) {
    double total = 0.0;
    for (const double s : st.phase_seconds) total += s;
    for (std::size_t ph = 0; ph < kProfilePhases; ++ph) {
      const double s = st.phase_seconds[ph];
      rows->push_back(
          {"phase " + std::string(to_string(static_cast<ProfilePhase>(ph))),
           fmt(s, 2) + " s (" +
               fmt(total > 0.0 ? 100.0 * s / total : 0.0, 1) + " %)"});
    }
  }
  for (const LpPhase& p : st.lp_phases) {
    rows->push_back({"lp " + std::to_string(p.lp),
                     std::to_string(p.events) + " events, run " +
                         fmt(p.run_s, 2) + " s, barrier wait " +
                         fmt(p.wait_s, 2) + " s"});
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace burst;

  std::string out_dir = "campaign_out";
  std::string cache_dir;
  bool no_cache = false;
  bool list = false;
  bool print_tables = false;
  bool quiet = false;
  bool profile = false;
  unsigned threads = 0;
  int lp_shards = 1;
  std::string only;
  std::string camp_file;
  std::string figure_flag;  // first --duration/--seed/--only given
  Scenario base = Scenario::paper_default();
  // --duration, --seed and their environment variables are `set` fields.
  auto set_field = [&base](const std::string& source, const char* field,
                           const std::string& value) {
    std::string msg;
    if (apply_scenario_field(&base, field, value, &msg)) return true;
    std::cerr << "burstcamp: " << source << ": " << msg << "\n";
    return false;
  };
  for (const auto& [env, field] : {std::pair{"BURST_DURATION", "duration"},
                                   std::pair{"BURST_SEED", "seed"}}) {
    const char* v = std::getenv(env);
    if (v != nullptr && !set_field(env, field, v)) return 2;
  }

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (arg == "--no-cache") {
      no_cache = true;
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--print") {
      print_tables = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (parse_flag(arg, "--out", &value)) {
      out_dir = value;
    } else if (parse_flag(arg, "--cache-dir", &value)) {
      cache_dir = value;
    } else if (parse_flag(arg, "--threads", &value)) {
      int n = 0;
      if (!parse_int_option(value, 0, kMaxThreads, &n)) {
        std::cerr << "burstcamp: --threads needs an integer in [0, "
                  << kMaxThreads << "]\n";
        return 2;
      }
      threads = static_cast<unsigned>(n);
    } else if (parse_flag(arg, "--lp", &value)) {
      if (!parse_int_option(value, 1, INT_MAX, &lp_shards)) {
        std::cerr << "burstcamp: --lp needs a positive integer\n";
        return 2;
      }
    } else if (parse_flag(arg, "--duration", &value)) {
      if (!set_field("--duration", "duration", value)) return 2;
      if (figure_flag.empty()) figure_flag = "--duration";
    } else if (parse_flag(arg, "--seed", &value)) {
      if (!set_field("--seed", "seed", value)) return 2;
      if (figure_flag.empty()) figure_flag = "--seed";
    } else if (parse_flag(arg, "--only", &value)) {
      only = value;
      if (figure_flag.empty()) figure_flag = "--only";
    } else if (parse_flag(arg, "--campaign", &value)) {
      camp_file = value;
    } else {
      std::cerr << "burstcamp: unknown option " << arg << "\n\n" << kUsage;
      return 2;
    }
  }
  if (cache_dir.empty()) cache_dir = out_dir + "/cache";

  CampaignOptions opts;
  opts.cache_dir = cache_dir;
  opts.use_cache = !no_cache;
  opts.threads = threads;
  opts.artifact_dir = out_dir;
  opts.log = quiet ? nullptr : &std::cerr;
  opts.profile = profile;
  opts.lp_shards = lp_shards;

  if (!camp_file.empty()) {
    if (!figure_flag.empty()) {
      std::cerr << "burstcamp: " << figure_flag
                << " shapes the built-in figure set and does not combine "
                   "with --campaign (a .camp file sets its own duration "
                   "and seed)\n";
      return 2;
    }
    TopoCampaignSpec spec;
    TopoError terr;
    if (!load_camp_file(camp_file, &spec, &terr)) {
      std::cerr << terr.render(camp_file) << "\n";
      return 1;
    }
    if (list) {
      std::cout << spec.name << "  (" << spec.scenario_files.size()
                << " scenario files";
      for (const auto& s : spec.sweeps) {
        std::cout << " x " << s.field << "[" << s.values.size() << "]";
      }
      std::cout << " = " << spec.num_points() << " points, metric "
                << spec.metric << ")\n";
      return 0;
    }
    const auto tout = run_topo_campaign(spec, opts, &terr);
    if (!tout) {
      std::cerr << "burstcamp: " << terr.message << "\n";
      return 1;
    }
    std::vector<std::vector<std::string>> rows = {
        {"name", tout->name},
        {"planned points", std::to_string(tout->stats.planned)},
        {"unique scenarios", std::to_string(tout->stats.unique)},
        {"cache hits", std::to_string(tout->stats.cache_hits)},
        {"simulated here", std::to_string(tout->stats.simulated)},
        {"simulated by other workers",
         std::to_string(tout->stats.farmed_out)},
        {"artifacts", tout->csv_path.empty() ? out_dir : tout->csv_path},
        {"cache", no_cache ? std::string("disabled") : cache_dir},
    };
    append_engine_rows(tout->stats, profile, &rows);
    print_table(std::cout, {"campaign", "value"}, rows);
    std::cout.flush();
    return 0;
  }

  std::vector<CampaignSweep> sweeps = paper_figure_campaign(base);
  if (list) {
    for (const auto& s : sweeps) {
      std::cout << s.name << "  (" << s.metric_name << ", "
                << s.configs.size() << " series x " << s.client_counts.size()
                << " client counts)\n";
    }
    return 0;
  }
  if (!only.empty()) {
    std::vector<CampaignSweep> selected;
    std::string rest = only;
    while (!rest.empty()) {
      const std::size_t comma = rest.find(',');
      const std::string name = rest.substr(0, comma);
      rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
      bool found = false;
      for (const auto& s : sweeps) {
        if (s.name == name) {
          selected.push_back(s);
          found = true;
        }
      }
      if (!found) {
        std::cerr << "burstcamp: unknown figure '" << name
                  << "' (try --list)\n";
        return 2;
      }
    }
    sweeps = std::move(selected);
  }

  const CampaignOutput out = run_campaign(sweeps, opts);

  if (print_tables) {
    for (std::size_t s = 0; s < sweeps.size(); ++s) {
      std::cout << "\n=== " << sweeps[s].name << " ===\n";
      print_metric_vs_clients(std::cout, out.sweeps[s].second,
                              sweeps[s].metric_name, sweeps[s].metric);
    }
    std::cout << '\n';
  }

  const CampaignStats& st = out.stats;
  std::vector<std::vector<std::string>> rows = {
      {"figure sweeps", std::to_string(sweeps.size())},
      {"planned points", std::to_string(st.planned)},
      {"unique scenarios", std::to_string(st.unique)},
      {"cache hits", std::to_string(st.cache_hits)},
      {"simulated", std::to_string(st.simulated)},
      {"stale/corrupt cache entries", std::to_string(st.store_skipped)},
      {"wall time (s)", fmt(st.wall_s, 2)},
      {"artifacts", out_dir},
      {"cache", no_cache ? std::string("disabled") : cache_dir},
  };
  append_engine_rows(st, profile, &rows);
  print_table(std::cout, {"campaign", "value"}, rows);
  std::cout.flush();
  return 0;
}
