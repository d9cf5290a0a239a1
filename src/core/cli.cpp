#include "src/core/cli.hpp"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <sstream>

#include "src/topo/parser.hpp"

namespace burst {

namespace {

// The scenario flags: each is its historical spelling of a `set` field.
// The unit is appended to the value; a bare flag means "true", which only
// the boolean fields accept.
struct FieldFlag {
  const char* flag;
  const char* field;
  const char* unit;
};

constexpr FieldFlag kFieldFlags[] = {
    {"transport", "transport", ""},
    {"queue", "queue", ""},
    {"clients", "clients", ""},
    {"duration", "duration", ""},
    {"seed", "seed", ""},
    {"buffer", "gateway_buffer", ""},
    {"bottleneck-mbps", "bottleneck_bw", "Mbps"},
    {"mean-interarrival", "mean_interarrival", ""},
    {"red-min", "red_min", ""},
    {"red-max", "red_max", ""},
    {"red-maxp", "red_maxp", ""},
    {"delack", "delayed_ack", ""},
    {"ecn", "ecn", ""},
    {"adaptive-red", "adaptive_red", ""},
    {"limited-transmit", "limited_transmit", ""},
    {"cwnd-validation", "cwnd_validation", ""},
};

bool fail(CliError* error, const std::string& msg) {
  if (error) error->message = msg;
  return false;
}

/// One option. Scenario fields are applied to @p sc, which validates
/// them, and recorded in @p fields: the overrides of a scenario file.
bool apply_option(const std::string& key, const std::string& value,
                  bool has_value, CliRequest* req, Scenario* sc,
                  TopoOverrides* fields, CliError* error) {
  auto need = [&](const char* what) {
    return has_value ? true
                     : fail(error, "--" + key + " requires a value (" +
                                       std::string(what) + ")");
  };
  auto set_field = [&](const std::string& field, const std::string& v) {
    std::string msg;
    if (!apply_scenario_field(sc, field, v, &msg)) {
      return fail(error, "--" + key + ": " + msg);
    }
    fields->emplace_back(field, v);
    return true;
  };
  for (const FieldFlag& f : kFieldFlags) {
    if (key != f.flag) continue;
    if (!has_value) {
      return is_boolean_scenario_field(f.field) ? set_field(f.field, "true")
                                                : need(f.field);
    }
    return set_field(f.field, value + f.unit);
  }
  if (key == "set") {
    if (!need("field=value")) return false;
    const auto eq = value.find('=');
    if (eq == std::string::npos) {
      return fail(error, "--set wants field=value, got '" + value + "'");
    }
    return set_field(value.substr(0, eq), value.substr(eq + 1));
  }
  if (key == "scenario" || key == "validate") {
    if (!need("a .topo file")) return false;
    if (!req->scenario_file.empty()) {
      return fail(error, "--scenario and --validate name one file, once");
    }
    req->scenario_file = value;
    req->validate = key == "validate";
    return true;
  }
  if (key == "help") {
    req->show_help = true;
    return true;
  }
  if (key == "trace") {
    if (!need("client indices")) return false;
    std::istringstream is(value);
    std::string tok;
    while (std::getline(is, tok, ',')) {
      int idx = 0;
      if (!parse_int_option(tok, 0, INT_MAX, &idx)) {
        return fail(error, "--trace needs comma-separated indices");
      }
      req->cwnd_clients.push_back(idx);
    }
    return true;
  }
  if (key == "lp") {
    if (!need("shard count") ||
        !parse_int_option(value, 1, INT_MAX, &req->options.lp_shards)) {
      return fail(error, "--lp needs a positive integer");
    }
    return true;
  }
  if (key == "csv") {
    if (!need("path")) return false;
    req->csv_path = value;
    return true;
  }
  if (key == "trace-out") {
    if (!need("path stem")) return false;
    req->trace_path = value;
    return true;
  }
  if (key == "fr-out") {
    if (!need("path stem")) return false;
    req->fr_path = value;
    return true;
  }
  if (key == "fr-period") {
    double p = 0.0;
    if (!need("seconds") || !parse_number(value, &p) || !(p > 0.0)) {
      return fail(error, "--fr-period needs a positive number of seconds");
    }
    req->fr_period = p;
    return true;
  }
  if (key == "fr-cap") {
    if (!need("samples") || !parse_int_option(value, 2, INT_MAX, &req->fr_cap)) {
      return fail(error, "--fr-cap needs an integer sample budget >= 2");
    }
    return true;
  }
  if (key == "profile") {
    req->profile = true;
    return true;
  }
  return fail(error, "unknown option --" + key);
}

}  // namespace

bool parse_int_option(const std::string& text, int lo, int hi, int* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE || v < lo || v > hi) return false;
  *out = static_cast<int>(v);
  return true;
}

std::optional<CliRequest> parse_cli(const std::vector<std::string>& args,
                                    CliError* error) {
  CliRequest req;
  Scenario sc = Scenario::paper_default();
  TopoOverrides fields;
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) != 0) {
      fail(error, "unexpected argument '" + arg + "'");
      return std::nullopt;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    const std::string key = body.substr(0, eq);
    const bool has_value = eq != std::string::npos;
    const std::string value = has_value ? body.substr(eq + 1) : "";
    if (!apply_option(key, value, has_value, &req, &sc, &fields, error)) {
      return std::nullopt;
    }
  }
  if (req.show_help) return req;

  if (req.scenario_file.empty()) {
    // The one constraint a single field cannot check alone; a file's
    // `queue red` and `queue gateway` links check it at parse time.
    if (sc.red_min_th >= sc.red_max_th) {
      fail(error, "--red-min must be below --red-max");
      return std::nullopt;
    }
    req.spec = make_dumbbell_spec(sc);
  } else {
    TopoError terr;
    auto spec = load_topo_file(req.scenario_file, &terr, fields);
    if (!spec) {
      fail(error, terr.render(req.scenario_file));
      if (error) error->exit_code = 1;
      return std::nullopt;
    }
    req.spec = std::move(*spec);
  }
  const auto flows = static_cast<int>(TopoGraph(req.spec).flows().size());
  for (int idx : req.cwnd_clients) {
    if (idx >= flows) {
      fail(error, "--trace index " + std::to_string(idx) +
                      " out of range for " + std::to_string(flows) +
                      " clients");
      return std::nullopt;
    }
  }
  return req;
}

std::string cli_usage() {
  return
      "burstsim — run one experiment from the ICDCS 2000 TCP burstiness\n"
      "study (the paper dumbbell, or a .topo scenario file) and print its\n"
      "metrics.\n\n"
      "usage: burstsim [--option[=value]]...\n\n"
      "scenario (each flag is a `set` field, applied in order like\n"
      "--set=field=value; with --scenario they override the file):\n"
      "  --transport=udp|tahoe|reno|newreno|vegas|sack   (default reno)\n"
      "  --queue=fifo|red|drr                            (default fifo)\n"
      "  --clients=N            number of Poisson clients (default 20)\n"
      "  --duration=SECONDS     simulated time            (default 20)\n"
      "  --seed=N               RNG seed                  (default 1)\n"
      "  --buffer=PKTS          gateway buffer B          (default 50)\n"
      "  --bottleneck-mbps=X    bottleneck bandwidth      (default 32)\n"
      "  --mean-interarrival=S  per-client packet spacing (default 0.01)\n"
      "  --delack               delayed ACKs at the sink\n"
      "  --ecn                  ECN marking (with --queue=red)\n"
      "  --adaptive-red         self-configuring RED max_p\n"
      "  --limited-transmit     RFC 3042 limited transmit\n"
      "  --cwnd-validation      RFC 2861-style growth gating\n"
      "  --red-min=X --red-max=X --red-maxp=X   RED parameters\n"
      "  --set=FIELD=VALUE      any `set` field (DESIGN.md section 10.1);\n"
      "                         repeatable\n"
      "  --scenario=FILE        run the .topo scenario FILE instead of the\n"
      "                         dumbbell\n"
      "  --validate=FILE        parse + validate FILE, print its\n"
      "                         fingerprint and exit without simulating;\n"
      "                         a bad file exits 1 with file:line:col\n\n"
      "run:\n"
      "  --lp=N                 logical processes for the conservative\n"
      "                         parallel engine (default 1 = sequential)\n"
      "  --trace=i,j,...        print the cwnd traces of these clients\n"
      "                         (0-based), read from a full event trace\n"
      "  --csv=PATH             with --trace, also write each as CSV:\n"
      "                         PATH.client <i+1>.csv\n"
      "  --trace-out=PATH       structured event trace: writes PATH.jsonl\n"
      "                         and PATH.perfetto.json (open in Perfetto);\n"
      "                         with --lp>1 each LP records its own ring,\n"
      "                         merged byte-identically to the lp=1 files,\n"
      "                         plus PATH.runtime.perfetto.json (per-LP\n"
      "                         barrier/run timeline)\n"
      "  --fr-out=PATH          flight recorder (huge-N sampler): writes\n"
      "                         PATH.csv and PATH.jsonl\n"
      "  --fr-period=S          flight-recorder cadence   (default 0.1)\n"
      "  --fr-cap=N             flight-recorder sample budget (default 4096)\n"
      "  --profile              per-LP phase table (windows=0 when lp=1)\n"
      "  --help                 this text\n";
}

}  // namespace burst
