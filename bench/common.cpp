#include "bench/common.hpp"

#include <chrono>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <utility>

#include "src/core/cli.hpp"
#include "src/obs/trace.hpp"
#include "src/run/campaign.hpp"
#include "src/sim/scheduler.hpp"
#include "src/topo/parser.hpp"

namespace burst::bench {

Scenario paper_base() {
  Scenario s = Scenario::paper_default();
  for (const auto& [env, field] : {std::pair{"BURST_DURATION", "duration"},
                                   std::pair{"BURST_SEED", "seed"}}) {
    const char* v = std::getenv(env);
    std::string msg;
    if (v != nullptr && !apply_scenario_field(&s, field, v, &msg)) {
      std::cerr << "error: " << env << ": " << msg << "\n";
      std::exit(2);
    }
  }
  return s;
}

void banner(const std::string& figure, const std::string& paper_claim) {
  std::cout << "==============================================================\n"
            << figure << "\n"
            << "Paper: " << paper_claim << "\n"
            << "==============================================================\n";
}

void verdict(bool ok, const std::string& what) {
  std::cout << (ok ? "[REPRODUCED] " : "[DEVIATION]  ") << what << "\n";
}

std::vector<SweepSeries> figure_sweep(const std::string& name,
                                      const Scenario& base) {
  const std::vector<CampaignSweep> sweeps = paper_figure_campaign(base);
  const auto sweep =
      std::find_if(sweeps.begin(), sweeps.end(),
                   [&name](const CampaignSweep& s) { return s.name == name; });
  if (sweep == sweeps.end()) {
    std::cerr << "error: no figure sweep named " << name << "\n";
    std::exit(2);
  }

  const char* cache = std::getenv("BURST_CACHE_DIR");
  const std::string cache_dir = cache != nullptr ? cache : "";
  CampaignOptions opts;
  if (std::getenv("BURST_NO_CACHE") == nullptr) opts.cache_dir = cache_dir;
  opts.log = cache_dir.empty() ? nullptr : &std::cerr;
  std::vector<SweepSeries> series =
      run_campaign({*sweep}, opts).sweeps.front().second;

  if (const char* dir = std::getenv("BURST_CSV_DIR")) {
    const std::string path = std::string(dir) + "/" + name + ".csv";
    if (write_sweep_csv(path, series, sweep->metric)) {
      std::cout << "wrote " << path << "\n";
    } else {
      std::cerr << "error: could not write " << path << "\n";
    }
  }
  return series;
}

std::vector<TraceSeries> cwnd_series_or_exit(const TraceSink& sink,
                                             const std::vector<int>& clients) {
  auto traces = client_cwnd_series(sink, clients);
  if (!traces) {
    std::cerr << "error: the trace ring overwrote " << sink.dropped()
              << " records, so the cwnd traces would start late\n";
    std::exit(1);
  }
  return std::move(*traces);
}

TracedRun run_traced(const Scenario& sc, const std::vector<int>& clients) {
  TraceSink sink;
  ExperimentOptions opts;
  opts.trace = &sink;
  ExperimentResult r = run_experiment(sc, opts);
  return {std::move(r), cwnd_series_or_exit(sink, clients)};
}

std::vector<int> all_clients(int n) {
  std::vector<int> clients(static_cast<std::size_t>(n));
  std::iota(clients.begin(), clients.end(), 0);
  return clients;
}

TracedRun run_cwnd_figure(const std::string& figure, const std::string& claim,
                          Transport transport, int num_clients) {
  banner(figure, claim);
  Scenario sc = paper_base();
  sc.transport = transport;
  sc.num_clients = num_clients;

  // The paper traces three spread-out clients (e.g. 1, 10, 20 of 20).
  TracedRun run = run_traced(sc, {0, num_clients / 2, num_clients - 1});
  const ExperimentResult& r = run.result;

  std::cout << "scenario: " << sc.label() << ", duration " << sc.duration
            << " s\n\n";
  // Sampled every 0.1 s, the paper's x-axis unit.
  print_cwnd_series(std::cout, run.cwnd, sc.duration, 0.1, 50);
  std::cout << "\ntimeouts=" << r.timeouts
            << " fast_retransmits=" << r.fast_retransmits
            << " loss%=" << fmt(r.loss_pct, 2) << " cov=" << fmt(r.cov, 4)
            << " (poisson " << fmt(r.poisson_cov, 4) << ")\n";
  return run;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string json_number(double v) {
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

ProbeRow& ProbeRow::add(const std::string& key, double value) {
  return add_json(key, json_number(value));
}

ProbeRow& ProbeRow::add(const std::string& key, std::uint64_t value) {
  return add_json(key, std::to_string(value));
}

ProbeRow& ProbeRow::add_json(const std::string& key, std::string json) {
  extra.emplace_back(key, std::move(json));
  return *this;
}

double ProbeRow::ns_per_op() const {
  return wall_s * 1e9 / static_cast<double>(ops ? ops : 1);
}

double ProbeRow::ops_per_sec() const {
  return static_cast<double>(ops) / (wall_s > 0 ? wall_s : 1e-9);
}

ProbeArgs parse_probe_args(int argc, char** argv, const std::string& probe,
                           const std::string& default_out) {
  ProbeArgs args;
  args.out = default_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      args.out = arg.substr(6);
    } else if (arg.rfind("--repeat=", 0) != 0 ||
               !parse_int_option(arg.substr(9), 1, INT_MAX, &args.repeat)) {
      std::cerr << "usage: " << probe
                << " [--smoke] [--repeat=N] [--out=PATH]\n";
      std::exit(2);
    }
  }
  return args;
}

void add_row(std::vector<ProbeRow>* rows, ProbeRow row) {
  std::cout << row.name << ": " << row.ns_per_op() << " ns/op  ("
            << static_cast<std::uint64_t>(row.ops_per_sec())
            << " ops/s, wall " << row.wall_s << " s";
  for (const auto& [key, value] : row.extra) {
    std::cout << ", " << key << " " << value;
  }
  std::cout << ")" << std::endl;
  rows->push_back(std::move(row));
}

void write_probe_json(
    const ProbeArgs& args, const std::string& bench,
    const std::vector<ProbeRow>& rows,
    const std::vector<std::pair<std::string, std::string>>& header) {
  std::ofstream out(args.out, std::ios::trunc);
  out << "{\n  \"bench\": \"" << bench << "\",\n  \"mode\": \""
      << (args.smoke ? "smoke" : "full") << "\",\n  \"schema\": 1,\n";
  for (const auto& [key, value] : header) {
    out << "  \"" << key << "\": " << value << ",\n";
  }
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ProbeRow& r = rows[i];
    out << "    {\"name\": \"" << r.name << "\", \"ops\": " << r.ops
        << ", \"wall_s\": " << json_number(r.wall_s)
        << ", \"ns_per_op\": " << json_number(r.ns_per_op())
        << ", \"ops_per_sec\": " << json_number(r.ops_per_sec());
    for (const auto& [key, value] : r.extra) {
      out << ", \"" << key << "\": " << value;
    }
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  if (!out.flush()) {
    std::cerr << bench << ": failed to write " << args.out << "\n";
    std::exit(1);
  }
  std::cout << "wrote " << args.out << "\n";
}

ProbeRow schedule_pop_row(std::string name, std::uint64_t ops,
                          std::size_t depth, int repeat) {
  const double wall = best_of(repeat, [&] {
    Scheduler s;
    Mix mix{42};
    Time now = 0.0;
    for (std::size_t i = 0; i < depth; ++i) {
      s.schedule_at(mix.next(), [] {});
    }
    const double t0 = now_s();
    for (std::uint64_t i = 0; i < ops; ++i) {
      auto ready = s.take_next();
      now = ready.at;
      s.schedule_at(now + mix.next(), [] {});
    }
    const double dt = now_s() - t0;
    while (!s.empty()) s.take_next();
    return dt;
  });
  return {std::move(name), ops, wall, {}};
}

}  // namespace burst::bench
