// burstsim: command-line driver for single experiments. See --help.
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/cli.hpp"
#include "src/core/experiment.hpp"
#include "src/core/report.hpp"
#include "src/obs/flight_recorder.hpp"
#include "src/obs/runtime_trace.hpp"
#include "src/obs/trace.hpp"
#include "src/topo/partition.hpp"
#include "src/topo/spec.hpp"

namespace {

// Per-LP breakdown: where each logical process spent its wall clock
// (processing events vs blocked at window barriers) plus the merge
// high-water mark. Sequential runs carry no lp_stats; with
// --profile we synthesize the degenerate one-LP row (windows=0) so
// scripts can parse the same table shape at any --lp.
void print_lp_stats(std::ostream& os, const burst::ExperimentResult& r,
                    bool force) {
  std::vector<burst::LpStats> stats = r.lp_stats;
  if (stats.empty()) {
    if (!force) return;
    burst::LpStats s;
    s.events = r.sim_events;
    s.run_s = r.sim_wall_s;
    stats.push_back(s);
  }
  std::vector<std::vector<std::string>> rows;
  for (std::size_t lp = 0; lp < stats.size(); ++lp) {
    const burst::LpStats& s = stats[lp];
    rows.push_back({"LP " + std::to_string(lp), std::to_string(s.events),
                    std::to_string(s.windows),
                    std::to_string(s.msgs_in) + " / " +
                        std::to_string(s.msgs_out),
                    std::to_string(s.merge_high_water),
                    burst::fmt(burst::horizon_advance_mean(s), 4) + " s",
                    burst::fmt(s.run_s, 3) + " s",
                    burst::fmt(s.wait_s, 3) + " s"});
  }
  os << '\n' << "parallel engine: " << r.lp_shards << " LP"
     << (r.lp_shards == 1 ? "" : "s") << "\n";
  burst::print_table(os,
                     {"process", "events", "windows", "msgs in/out",
                      "merge hw", "horizon adv", "run",
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

  CliError error;
  auto request =
      parse_cli(std::vector<std::string>(argv + 1, argv + argc), &error);
  if (!request) {
    if (error.exit_code == 2) {
      std::cerr << "burstsim: " << error.message << "\n\n" << cli_usage();
    } else {
      std::cerr << error.message << "\n";
    }
    return error.exit_code;
  }
  if (request->show_help) {
    std::cout << cli_usage();
    return 0;
  }
  const TopoSpec& spec = request->spec;
  if (request->validate) {
    std::cout << "ok: " << request->scenario_file << "\n"
              << "scenario:    " << spec.name << "\n"
              << "nodes:       " << spec.total_nodes() << " ("
              << spec.nodes.size() << " groups)\n"
              << "links:       " << spec.links.size() << " statements\n"
              << "flows:       " << spec.flows.size() << " statements\n"
              << "fingerprint: " << topo_key(spec).hex() << "\n";
    return 0;
  }

  // --trace reads its cwnd traces from the event trace, so it records
  // one in memory even when --trace-out does not write it.
  std::unique_ptr<TraceSink> trace;
  if (!request->trace_path.empty() || !request->cwnd_clients.empty()) {
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

  // A partition that cannot honor --lp runs fewer LPs; say why.
  if (request->options.lp_shards > 1) {
    const std::string note =
        make_lp_partition(spec, request->options.lp_shards).note;
    if (!note.empty()) std::cerr << "burstsim: " << note << "\n";
  }

  const Scenario& sc = spec.scenario;
  std::cout << "running: " << spec.name << " (" << sc.label() << ", "
            << spec.total_nodes() << " nodes), " << sc.duration
            << " s simulated, seed " << sc.seed
            << "\nfingerprint: " << topo_key(spec).hex() << "\n";
  const ExperimentResult r = run_experiment(spec, request->options);

  std::vector<std::vector<std::string>> rows;
  for_each_result_field(r, [&rows](const ResultField& f, const auto& v) {
    if constexpr (std::is_floating_point_v<std::decay_t<decltype(v)>>) {
      rows.push_back({f.label, fmt(v, f.digits)});
    } else {
      rows.push_back({f.label, std::to_string(v)});
    }
  });
  print_table(std::cout, {"metric", "value"}, rows);
  print_lp_stats(std::cout, r, request->profile);

  std::vector<TraceSeries> cwnd;
  if (!request->cwnd_clients.empty()) {
    auto traces = client_cwnd_series(*trace, request->cwnd_clients);
    if (!traces) {
      std::cerr << "burstsim: the trace ring overwrote " << trace->dropped()
                << " records, so the cwnd traces would start late\n";
      return 1;
    }
    cwnd = std::move(*traces);
    std::cout << '\n';
    print_cwnd_series(std::cout, cwnd, sc.duration, 0.1, 40);
  }
  if (!request->csv_path.empty()) {
    bool csv_ok = true;
    for (const auto& t : cwnd) {
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
  if (!request->trace_path.empty()) {
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
      if (!out || !write_runtime_trace(out, r.lp_stats, r.lp_windows) ||
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
