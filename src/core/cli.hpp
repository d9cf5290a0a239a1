// Command-line front end for running one experiment: resolves `--key=value`
// options into one TopoSpec + ExperimentOptions. Lives in the library (not
// the tool) so the parsing rules are unit-testable.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/core/experiment.hpp"
#include "src/topo/spec.hpp"

namespace burst {

struct CliRequest {
  /// The one scenario this invocation runs: make_dumbbell_spec of the
  /// flag-built Scenario, or the --scenario / --validate file with the
  /// scenario flags applied over its `set` lines.
  TopoSpec spec;
  std::string scenario_file;  // empty = the flag-built dumbbell
  bool validate = false;      // --validate: check the file, do not run
  ExperimentOptions options;
  std::vector<int> cwnd_clients;  // --trace: clients whose cwnd traces
                                  // are read from a full event trace
  std::string csv_path;    // if non-empty, write cwnd traces as CSV here
  std::string trace_path;  // if non-empty, attach a TraceSink and write
                           // <path>.jsonl + <path>.perfetto.json (and, for
                           // parallel runs, <path>.runtime.perfetto.json)
  std::string fr_path;     // if non-empty, attach a FlightRecorder and
                           // write <path>.csv + <path>.jsonl
  double fr_period = 0.1;  // flight-recorder cadence (simulated seconds)
  int fr_cap = 4096;       // flight-recorder sample budget
  bool profile = false;    // print the per-LP phase table even when lp=1
  bool show_help = false;
};

struct CliError {
  std::string message;
  int exit_code = 2;  // 2: a bad option; 1: a bad scenario file
                      // (message is then `file:line:col: ...`)
};

/// Parses argv (excluding argv[0]); cli_usage() lists the options. Every
/// scenario flag (--clients, --queue, --delack, ...) is its historical
/// spelling of a `set` field and is applied like --set=field=value, in
/// command-line order. Returns the resolved request, or an error.
std::optional<CliRequest> parse_cli(const std::vector<std::string>& args,
                                    CliError* error);

/// Parses all of @p text as a base-10 integer in [@p lo, @p hi]; false on
/// anything else, out-of-range values included.
bool parse_int_option(const std::string& text, int lo, int hi, int* out);

/// The --help text.
std::string cli_usage();

}  // namespace burst
