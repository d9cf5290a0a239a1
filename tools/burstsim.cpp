// burstsim: command-line driver for single experiments. See --help.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/core/cli.hpp"
#include "src/core/experiment.hpp"
#include "src/core/report.hpp"
#include "src/obs/flight_recorder.hpp"
#include "src/obs/runtime_trace.hpp"
#include "src/obs/trace.hpp"
#include "src/topo/parser.hpp"

namespace {

constexpr const char* kTopoUsage =
    R"(topology files (see DESIGN.md section 10):
  --scenario=FILE   build and run the .topo scenario FILE instead of the
                    flag-built dumbbell; combine with --set=field=value
                    (repeatable) to override Scenario fields
  --validate=FILE   parse + validate FILE, print its fingerprint and
                    exit; nonzero exit and a file:line:col diagnostic on
                    any error (no simulation)
)";

// Per-LP phase breakdown: where each logical process spent its wall clock
// (processing events vs blocked at window barriers) plus the channel and
// merge high-water marks. Sequential runs carry no lp_phases; with
// --profile we synthesize the degenerate one-LP row (windows=0) so
// scripts can parse the same table shape at any --lp.
void print_lp_phases(std::ostream& os, const burst::ExperimentResult& r,
                     bool force) {
  std::vector<burst::LpPhase> phases = r.lp_phases;
  if (phases.empty()) {
    if (!force) return;
    burst::LpPhase p;
    p.lp = 0;
    p.events = r.sim_events;
    p.run_s = r.sim_wall_s;
    phases.push_back(p);
  }
  std::vector<std::vector<std::string>> rows;
  for (const burst::LpPhase& p : phases) {
    rows.push_back({"LP " + std::to_string(p.lp), std::to_string(p.events),
                    std::to_string(p.windows),
                    std::to_string(p.msgs_in) + " / " +
                        std::to_string(p.msgs_out),
                    std::to_string(p.merge_high_water),
                    std::to_string(p.chan_high_water) + " / " +
                        std::to_string(p.chan_overflows),
                    burst::fmt(p.horizon_advance_mean, 4) + " s",
                    burst::fmt(p.run_s, 3) + " s",
                    burst::fmt(p.wait_s, 3) + " s"});
  }
  os << '\n' << "parallel engine: " << r.lp_shards << " LP"
     << (r.lp_shards == 1 ? "" : "s") << "\n";
  burst::print_table(os,
                     {"process", "events", "windows", "msgs in/out",
                      "merge hw", "chan hw/ovf", "horizon adv", "run",
                      "barrier"},
                     rows);
}

// Writes one export of the structured trace; returns success.
bool write_trace_file(const burst::TraceSink& sink, const std::string& path,
                      bool perfetto) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::cerr << "burstsim: could not open " << path << "\n";
    return false;
  }
  const bool ok = perfetto ? sink.write_chrome_trace(out)
                           : sink.write_jsonl(out);
  out.flush();
  if (!ok || !out) {
    std::cerr << "burstsim: short write to " << path << "\n";
    return false;
  }
  std::cout << "wrote " << path << "\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace burst;

  // Topology-file modes are handled before the flag parser: they replace
  // the flag-built Scenario wholesale.
  std::string topo_file;
  std::string validate_file;
  TopoOverrides overrides;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scenario=", 0) == 0) {
      topo_file = arg.substr(11);
    } else if (arg.rfind("--validate=", 0) == 0) {
      validate_file = arg.substr(11);
    } else if (arg.rfind("--set=", 0) == 0) {
      const std::string kv = arg.substr(6);
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        std::cerr << "burstsim: --set wants field=value, got '" << kv << "'\n";
        return 2;
      }
      overrides.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    } else {
      args.push_back(arg);
    }
  }
  if (!validate_file.empty()) {
    TopoError terr;
    const auto spec = load_topo_file(validate_file, &terr, overrides);
    if (!spec) {
      std::cerr << terr.render(validate_file) << "\n";
      return 1;
    }
    std::cout << "ok: " << validate_file << "\n"
              << "scenario:    " << spec->name << "\n"
              << "nodes:       " << spec->total_nodes() << " ("
              << spec->nodes.size() << " groups)\n"
              << "links:       " << spec->links.size() << " statements\n"
              << "flows:       " << spec->flows.size() << " statements\n"
              << "fingerprint: " << topo_key(*spec).hex() << "\n";
    return 0;
  }
  if (!topo_file.empty()) {
    ExperimentOptions topt;
    bool topo_profile = false;
    for (const std::string& arg : args) {
      if (arg.rfind("--lp=", 0) == 0) {
        const int n = std::atoi(arg.c_str() + 5);
        if (n < 1) {
          std::cerr << "burstsim: --lp needs a positive integer\n";
          return 2;
        }
        topt.lp_shards = n;
        continue;
      }
      if (arg == "--profile") {
        topo_profile = true;
        continue;
      }
      std::cerr << "burstsim: --scenario only combines with --set=..., "
                   "--lp=N and --profile, got '"
                << arg << "'\n";
      return 2;
    }
    TopoError terr;
    const auto spec = load_topo_file(topo_file, &terr, overrides);
    if (!spec) {
      std::cerr << terr.render(topo_file) << "\n";
      return 1;
    }
    std::cout << "running: " << spec->name << " (" << spec->total_nodes()
              << " nodes), " << spec->scenario.duration
              << " s simulated, seed " << spec->scenario.seed
              << "\nfingerprint: " << topo_key(*spec).hex() << "\n";
    const ExperimentResult r = run_experiment(*spec, topt);
    print_table(
        std::cout, {"metric", "value"},
        {
            {"c.o.v. of measured-link arrivals per RTT", fmt(r.cov, 4)},
            {"analytic Poisson c.o.v.", fmt(r.poisson_cov, 4)},
            {"application packets generated", std::to_string(r.app_generated)},
            {"packets delivered in order", std::to_string(r.delivered)},
            {"measured-queue arrivals / drops",
             std::to_string(r.gw_arrivals) + " / " +
                 std::to_string(r.gw_drops)},
            {"packet loss", fmt(r.loss_pct, 2) + " %"},
            {"timeouts / fast retransmits",
             std::to_string(r.timeouts) + " / " +
                 std::to_string(r.fast_retransmits)},
            {"Jain fairness", fmt(r.fairness, 4)},
            {"routing errors", std::to_string(r.routing_errors)},
        });
    print_lp_phases(std::cout, r, topo_profile);
    return 0;
  }

  CliError error;
  auto request = parse_cli(args, &error);
  if (!request) {
    std::cerr << "burstsim: " << error.message << "\n\n" << cli_usage()
              << "\n" << kTopoUsage;
    return 2;
  }
  if (request->show_help) {
    std::cout << cli_usage() << "\n" << kTopoUsage;
    return 0;
  }

  std::unique_ptr<TraceSink> trace;
  if (!request->trace_path.empty()) {
    trace = std::make_unique<TraceSink>();
    request->options.trace = trace.get();
  }
  std::unique_ptr<FlightRecorder> flight;
  if (!request->fr_path.empty()) {
    FlightRecorderOptions fopts;
    fopts.period = request->fr_period;
    fopts.max_samples = static_cast<std::size_t>(request->fr_cap);
    flight = std::make_unique<FlightRecorder>(fopts);
    request->options.flight = flight.get();
  }

  const Scenario& sc = request->scenario;
  std::cout << "running: " << sc.label() << ", " << sc.duration
            << " s simulated, seed " << sc.seed << "\n";
  const ExperimentResult r = run_experiment(sc, request->options);

  print_table(
      std::cout, {"metric", "value"},
      {
          {"c.o.v. of gateway arrivals per RTT", fmt(r.cov, 4)},
          {"analytic Poisson c.o.v.", fmt(r.poisson_cov, 4)},
          {"application packets generated", std::to_string(r.app_generated)},
          {"packets delivered in order", std::to_string(r.delivered)},
          {"gateway arrivals / drops",
           std::to_string(r.gw_arrivals) + " / " + std::to_string(r.gw_drops)},
          {"packet loss", fmt(r.loss_pct, 2) + " %"},
          {"timeouts / fast retransmits",
           std::to_string(r.timeouts) + " / " +
               std::to_string(r.fast_retransmits)},
          {"duplicate ACKs received", std::to_string(r.dupacks)},
          {"Jain fairness", fmt(r.fairness, 4)},
      });
  print_lp_phases(std::cout, r, request->profile);

  if (!request->options.trace_clients.empty()) {
    std::cout << '\n';
    print_cwnd_traces(std::cout, r.cwnd_traces, sc.duration, 0.1, 40);
  }
  if (!request->csv_path.empty()) {
    bool csv_ok = true;
    for (const auto& t : r.cwnd_traces) {
      const std::string path =
          request->csv_path + "." + t.name() + ".csv";
      if (!write_trace_csv(path, t)) {
        std::cerr << "burstsim: could not write " << path << "\n";
        csv_ok = false;
        continue;
      }
      std::cout << "wrote " << path << "\n";
    }
    if (!csv_ok) return 1;
  }
  if (trace) {
    std::cout << "trace: " << trace->emitted() << " records emitted, "
              << trace->dropped() << " overwritten (ring capacity)\n";
    if (!write_trace_file(*trace, request->trace_path + ".jsonl", false) ||
        !write_trace_file(*trace, request->trace_path + ".perfetto.json",
                          true)) {
      return 1;
    }
    // Parallel traced runs additionally get the (machine-dependent)
    // per-LP runtime timeline — a separate file so the two above stay
    // byte-comparable against the sequential run.
    if (r.lp_shards > 1 && !r.lp_windows.empty()) {
      const std::string path = request->trace_path + ".runtime.perfetto.json";
      std::ofstream out(path, std::ios::trunc);
      if (!out || !write_runtime_trace(out, r.lp_phases, r.lp_windows) ||
          !out.flush()) {
        std::cerr << "burstsim: could not write " << path << "\n";
        return 1;
      }
      std::cout << "wrote " << path << "\n";
    }
  }
  if (flight) {
    std::cout << "flight recorder: " << flight->samples().size()
              << " samples held (" << flight->taken() << " taken, "
              << flight->decimations() << " decimations), period "
              << fmt(flight->period(), 4) << " s, budget "
              << flight->bytes_reserved() << " B\n";
    const std::string csv_path = request->fr_path + ".csv";
    const std::string jsonl_path = request->fr_path + ".jsonl";
    std::ofstream csv(csv_path, std::ios::trunc);
    if (!csv || !flight->write_csv(csv) || !csv.flush()) {
      std::cerr << "burstsim: could not write " << csv_path << "\n";
      return 1;
    }
    std::cout << "wrote " << csv_path << "\n";
    std::ofstream jsonl(jsonl_path, std::ios::trunc);
    if (!jsonl || !flight->write_jsonl(jsonl) || !jsonl.flush()) {
      std::cerr << "burstsim: could not write " << jsonl_path << "\n";
      return 1;
    }
    std::cout << "wrote " << jsonl_path << "\n";
  }
  return 0;
}
