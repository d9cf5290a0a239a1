#include "src/topo/parser.hpp"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <queue>
#include <sstream>

namespace burst {

std::string TopoError::render(std::string_view file) const {
  std::ostringstream os;
  os << file;
  if (line > 0) {
    os << ':' << line;
    if (col > 0) os << ':' << col;
  }
  os << ": " << message;
  return os.str();
}

namespace {

struct Token {
  std::string text;
  int col = 0;  // 1-based
};

// Splits on whitespace; '#' starts a comment through end of line.
std::vector<Token> tokenize(const std::string& line) {
  std::vector<Token> out;
  std::size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (c == '#') break;
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t' &&
           line[i] != '\r' && line[i] != '#') {
      ++i;
    }
    out.push_back({line.substr(start, i - start), static_cast<int>(start) + 1});
  }
  return out;
}

bool str_to_double(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* rest = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &rest);
  if (rest != s.c_str() + s.size() || errno == ERANGE) return false;
  *out = v;
  return true;
}

/// True iff @p d is a whole number in [@p lo, INT_MAX]. Checked before
/// any cast to int: an out-of-range cast is undefined behaviour.
bool whole_int(double d, double lo) {
  return d >= lo && d <= INT_MAX && d == std::floor(d);
}

bool str_to_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s[0] == '-') return false;
  char* rest = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(s.c_str(), &rest, 10);
  if (rest != s.c_str() + s.size() || errno == ERANGE) return false;
  *out = v;
  return true;
}

// Unit-suffix arithmetic mirrors src/sim/time.hpp's helpers exactly
// (`20ms` -> 20 * 1e-3, the same expression as ms(20)) so parsed values
// are bit-identical to the C++-side defaults they mirror.
bool parse_time_value(const std::string& s, double* out) {
  auto with_suffix = [&](const char* suf, double scale) -> int {
    const std::size_t n = std::string_view(suf).size();
    if (s.size() <= n || s.compare(s.size() - n, n, suf) != 0) return 0;
    double v = 0.0;
    if (!str_to_double(s.substr(0, s.size() - n), &v)) return -1;
    *out = v * scale;
    return 1;
  };
  // "us" and "ms" end in 's' too: check them first.
  for (const auto& [suf, scale] :
       {std::pair<const char*, double>{"us", 1e-6}, {"ms", 1e-3}, {"s", 1.0}}) {
    const int r = with_suffix(suf, scale);
    if (r != 0) return r > 0;
  }
  return str_to_double(s, out);  // bare number: seconds
}

bool parse_rate_value(const std::string& s, double* out) {
  auto with_suffix = [&](const char* suf, double scale) -> int {
    const std::size_t n = std::string_view(suf).size();
    if (s.size() <= n || s.compare(s.size() - n, n, suf) != 0) return 0;
    double v = 0.0;
    if (!str_to_double(s.substr(0, s.size() - n), &v)) return -1;
    *out = v * scale;
    return 1;
  };
  for (const auto& [suf, scale] : {std::pair<const char*, double>{"Gbps", 1e9},
                                   {"Mbps", 1e6},
                                   {"kbps", 1e3},
                                   {"bps", 1.0}}) {
    const int r = with_suffix(suf, scale);
    if (r != 0) return r > 0;
  }
  return str_to_double(s, out);  // bare number: bits per second
}

/// Current numeric value of a Scenario field, for `$field` references.
bool scenario_field_value(const Scenario& sc, const std::string& name,
                          double* out) {
  if (name == "clients") *out = sc.num_clients;
  else if (name == "client_bw") *out = sc.client_bw_bps;
  else if (name == "bottleneck_bw") *out = sc.bottleneck_bw_bps;
  else if (name == "client_delay") *out = sc.client_delay;
  else if (name == "bottleneck_delay") *out = sc.bottleneck_delay;
  else if (name == "client_delay_spread") *out = sc.client_delay_spread;
  else if (name == "advertised_window") *out = sc.advertised_window;
  else if (name == "gateway_buffer") *out = static_cast<double>(sc.gateway_buffer);
  else if (name == "client_queue_buffer") *out = static_cast<double>(sc.client_queue_buffer);
  else if (name == "payload_bytes") *out = sc.payload_bytes;
  else if (name == "mean_interarrival") *out = sc.mean_interarrival;
  else if (name == "duration") *out = sc.duration;
  else if (name == "warmup") *out = sc.warmup;
  else if (name == "red_min") *out = sc.red_min_th;
  else if (name == "red_max") *out = sc.red_max_th;
  else if (name == "red_maxp") *out = sc.red_max_p;
  else if (name == "red_weight") *out = sc.red_weight;
  else if (name == "seed") *out = static_cast<double>(sc.seed);
  else if (name == "meanfield_base") *out = sc.meanfield_base;
  else return false;
  return true;
}

bool parse_bool(const std::string& s, bool* out) {
  if (s == "true" || s == "1" || s == "on" || s == "yes") *out = true;
  else if (s == "false" || s == "0" || s == "off" || s == "no") *out = false;
  else return false;
  return true;
}

bool parse_transport(const std::string& s, Transport* out) {
  if (s == "udp") *out = Transport::kUdp;
  else if (s == "tahoe") *out = Transport::kTahoe;
  else if (s == "reno") *out = Transport::kReno;
  else if (s == "newreno") *out = Transport::kNewReno;
  else if (s == "vegas") *out = Transport::kVegas;
  else if (s == "sack") *out = Transport::kSack;
  else return false;
  return true;
}

}  // namespace

bool apply_scenario_field(Scenario* sc, const std::string& field,
                          const std::string& value, std::string* msg) {
  auto bad_value = [&](const char* what) {
    *msg = "bad " + std::string(what) + " '" + value + "' for field '" +
           field + "'";
    return false;
  };
  double d = 0.0;
  std::uint64_t u = 0;
  bool b = false;
  if (field == "clients") {
    if (!str_to_double(value, &d) || !whole_int(d, 1)) {
      return bad_value("client count");
    }
    sc->num_clients = static_cast<int>(d);
  } else if (field == "transport") {
    Transport t;
    if (!parse_transport(value, &t)) return bad_value("transport");
    sc->transport = t;
  } else if (field == "queue") {
    if (value == "fifo" || value == "droptail") {
      sc->gateway = GatewayQueue::kDropTail;
    } else if (value == "red") {
      sc->gateway = GatewayQueue::kRed;
    } else if (value == "drr") {
      sc->gateway = GatewayQueue::kDrr;
    } else {
      return bad_value("queue discipline");
    }
  } else if (field == "delayed_ack" || field == "delack") {
    if (!parse_bool(value, &b)) return bad_value("boolean");
    sc->delayed_ack = b;
  } else if (field == "ecn") {
    if (!parse_bool(value, &b)) return bad_value("boolean");
    sc->ecn = b;
  } else if (field == "adaptive_red") {
    if (!parse_bool(value, &b)) return bad_value("boolean");
    sc->adaptive_red = b;
  } else if (field == "limited_transmit") {
    if (!parse_bool(value, &b)) return bad_value("boolean");
    sc->limited_transmit = b;
  } else if (field == "cwnd_validation") {
    if (!parse_bool(value, &b)) return bad_value("boolean");
    sc->cwnd_validation = b;
  } else if (field == "client_bw") {
    if (!parse_rate_value(value, &d) || d <= 0) return bad_value("rate");
    sc->client_bw_bps = d;
  } else if (field == "bottleneck_bw") {
    if (!parse_rate_value(value, &d) || d <= 0) return bad_value("rate");
    sc->bottleneck_bw_bps = d;
  } else if (field == "client_delay") {
    if (!parse_time_value(value, &d) || d < 0) return bad_value("time");
    sc->client_delay = d;
  } else if (field == "bottleneck_delay") {
    if (!parse_time_value(value, &d) || d < 0) return bad_value("time");
    sc->bottleneck_delay = d;
  } else if (field == "client_delay_spread") {
    if (!str_to_double(value, &d) || d < 0 || d >= 1) {
      return bad_value("spread (need [0,1))");
    }
    sc->client_delay_spread = d;
  } else if (field == "advertised_window") {
    if (!str_to_double(value, &d) || d <= 0) return bad_value("window");
    sc->advertised_window = d;
  } else if (field == "gateway_buffer") {
    if (!str_to_u64(value, &u) || u == 0) return bad_value("buffer size");
    sc->gateway_buffer = static_cast<std::size_t>(u);
  } else if (field == "client_queue_buffer") {
    if (!str_to_u64(value, &u) || u == 0) return bad_value("buffer size");
    sc->client_queue_buffer = static_cast<std::size_t>(u);
  } else if (field == "payload_bytes") {
    if (!str_to_double(value, &d) || !whole_int(d, 1)) {
      return bad_value("byte count");
    }
    sc->payload_bytes = static_cast<int>(d);
  } else if (field == "mean_interarrival") {
    if (!parse_time_value(value, &d) || d <= 0) return bad_value("time");
    sc->mean_interarrival = d;
  } else if (field == "duration") {
    if (!parse_time_value(value, &d) || d <= 0) return bad_value("time");
    sc->duration = d;
  } else if (field == "warmup") {
    if (!parse_time_value(value, &d) || d < 0) return bad_value("time");
    sc->warmup = d;
  } else if (field == "red_min") {
    if (!str_to_double(value, &d) || d < 0) return bad_value("threshold");
    sc->red_min_th = d;
  } else if (field == "red_max") {
    if (!str_to_double(value, &d) || d <= 0) return bad_value("threshold");
    sc->red_max_th = d;
  } else if (field == "red_maxp") {
    if (!str_to_double(value, &d) || d <= 0 || d > 1) {
      return bad_value("probability");
    }
    sc->red_max_p = d;
  } else if (field == "red_weight") {
    if (!str_to_double(value, &d) || d <= 0 || d > 1) return bad_value("weight");
    sc->red_weight = d;
  } else if (field == "vegas_alpha") {
    if (!str_to_double(value, &d)) return bad_value("number");
    sc->vegas.alpha = d;
  } else if (field == "vegas_beta") {
    if (!str_to_double(value, &d)) return bad_value("number");
    sc->vegas.beta = d;
  } else if (field == "vegas_gamma") {
    if (!str_to_double(value, &d)) return bad_value("number");
    sc->vegas.gamma = d;
  } else if (field == "rto_min") {
    if (!parse_time_value(value, &d) || d <= 0) return bad_value("time");
    sc->rto.min_rto = d;
  } else if (field == "rto_max") {
    if (!parse_time_value(value, &d) || d <= 0) return bad_value("time");
    sc->rto.max_rto = d;
  } else if (field == "rto_initial") {
    if (!parse_time_value(value, &d) || d <= 0) return bad_value("time");
    sc->rto.initial_rto = d;
  } else if (field == "rto_granularity") {
    if (!parse_time_value(value, &d) || d < 0) return bad_value("time");
    sc->rto.granularity = d;
  } else if (field == "seed") {
    if (!str_to_u64(value, &u)) return bad_value("seed");
    sc->seed = u;
  } else if (field == "meanfield_base") {
    if (!str_to_double(value, &d) || !whole_int(d, 0)) {
      return bad_value("base client count");
    }
    sc->meanfield_base = static_cast<int>(d);
  } else {
    *msg = "unknown scenario field '" + field + "'";
    return false;
  }
  return true;
}

namespace {

/// Statement-level parse state shared by the helpers below.
struct Parser {
  TopoSpec spec;
  std::vector<std::string> node_names;
  TopoError* err;
  int lineno = 0;

  bool fail(int col, std::string msg) {
    err->line = lineno;
    err->col = col;
    err->message = std::move(msg);
    return false;
  }

  int find_node(const std::string& name) const {
    for (std::size_t i = 0; i < node_names.size(); ++i) {
      if (node_names[i] == name) return static_cast<int>(i);
    }
    return -1;
  }

  bool node_token(const Token& t, int* out) {
    const int idx = find_node(t.text);
    if (idx < 0) return fail(t.col, "unknown node '" + t.text + "'");
    *out = idx;
    return true;
  }

  // Numeric tokens, with `$field` substitution against the current
  // scenario. The three flavors differ only in suffix handling.
  bool number_token(const Token& t, double* out) {
    if (!t.text.empty() && t.text[0] == '$') {
      if (!scenario_field_value(spec.scenario, t.text.substr(1), out)) {
        return fail(t.col, "unknown scenario field reference '" + t.text + "'");
      }
      return true;
    }
    if (!str_to_double(t.text, out)) {
      return fail(t.col, "bad number '" + t.text + "'");
    }
    return true;
  }
  bool rate_token(const Token& t, double* out) {
    if (!t.text.empty() && t.text[0] == '$') return number_token(t, out);
    if (!parse_rate_value(t.text, out)) {
      return fail(t.col, "bad rate '" + t.text +
                             "' (want NUMBER[bps|kbps|Mbps|Gbps])");
    }
    return true;
  }
  bool time_token(const Token& t, double* out) {
    if (!t.text.empty() && t.text[0] == '$') return number_token(t, out);
    if (!parse_time_value(t.text, out)) {
      return fail(t.col, "bad time '" + t.text + "' (want NUMBER[s|ms|us])");
    }
    return true;
  }
  bool size_token(const Token& t, std::size_t* out) {
    double d = 0.0;
    if (!number_token(t, &d)) return false;
    if (!whole_int(d, 1)) {
      return fail(t.col, "'" + t.text + "' is not a positive integer");
    }
    *out = static_cast<std::size_t>(d);
    return true;
  }
};

}  // namespace

std::optional<TopoSpec> parse_topo(std::string_view text,
                                   std::string_view default_name,
                                   TopoError* err,
                                   const TopoOverrides& overrides) {
  TopoError local;
  if (err == nullptr) err = &local;
  Parser p;
  p.err = err;
  p.spec.name = std::string(default_name);
  p.spec.scenario = Scenario::paper_default();

  bool any_statement = false;
  bool graph_started = false;
  struct PendingMeasure {
    std::string from, to;
    int line = 0, col = 0;
  };
  std::optional<PendingMeasure> measure;

  // Applies the external overrides once, before the first graph
  // statement, so they win over the file's `set` lines but still feed
  // `$field` references and queue defaults.
  auto start_graph = [&]() -> bool {
    if (graph_started) return true;
    graph_started = true;
    for (const auto& [field, value] : overrides) {
      std::string msg;
      if (!apply_scenario_field(&p.spec.scenario, field, value, &msg)) {
        err->line = 0;
        err->col = 0;
        err->message = "override " + field + "=" + value + ": " + msg;
        return false;
      }
    }
    return true;
  };

  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    ++p.lineno;
    const std::vector<Token> t = tokenize(line);
    if (t.empty()) continue;
    const std::string& kw = t[0].text;

    if (kw == "scenario") {
      if (any_statement) {
        p.fail(t[0].col, "scenario must be the first statement");
        return std::nullopt;
      }
      if (t.size() != 2) {
        p.fail(t[0].col, "usage: scenario <name>");
        return std::nullopt;
      }
      p.spec.name = t[1].text;
    } else if (kw == "set") {
      if (graph_started) {
        p.fail(t[0].col,
               "set must precede node/link/flow/measure statements");
        return std::nullopt;
      }
      if (t.size() != 3) {
        p.fail(t[0].col, "usage: set <field> <value>");
        return std::nullopt;
      }
      std::string msg;
      if (!apply_scenario_field(&p.spec.scenario, t[1].text, t[2].text,
                                &msg)) {
        p.fail(t[1].col, msg);
        return std::nullopt;
      }
    } else if (kw == "node") {
      if (!start_graph()) return std::nullopt;
      if (t.size() != 2 && t.size() != 4) {
        p.fail(t[0].col, "usage: node <name> [count <N>]");
        return std::nullopt;
      }
      if (p.find_node(t[1].text) >= 0) {
        p.fail(t[1].col, "duplicate node '" + t[1].text + "'");
        return std::nullopt;
      }
      TopoNodeSpec node;
      node.name = t[1].text;
      node.line = p.lineno;
      if (t.size() == 4) {
        if (t[2].text != "count") {
          p.fail(t[2].col, "expected 'count', got '" + t[2].text + "'");
          return std::nullopt;
        }
        std::size_t c = 0;
        if (!p.size_token(t[3], &c)) return std::nullopt;
        node.count = static_cast<int>(c);
      }
      p.node_names.push_back(node.name);
      p.spec.nodes.push_back(std::move(node));
    } else if (kw == "link") {
      if (!start_graph()) return std::nullopt;
      if (t.size() < 3) {
        p.fail(t[0].col, "usage: link <from> <to> rate <R> delay <D> ...");
        return std::nullopt;
      }
      TopoLinkSpec link;
      link.line = p.lineno;
      if (!p.node_token(t[1], &link.from) || !p.node_token(t[2], &link.to)) {
        return std::nullopt;
      }
      if (link.from == link.to) {
        p.fail(t[2].col, "link endpoints must differ");
        return std::nullopt;
      }
      const int from_count = p.spec.nodes[static_cast<std::size_t>(link.from)].count;
      const int to_count = p.spec.nodes[static_cast<std::size_t>(link.to)].count;
      if (from_count > 1 && to_count > 1 && from_count != to_count) {
        std::ostringstream os;
        os << "group link '" << t[1].text << " -> " << t[2].text
           << "' needs equal member counts (" << from_count << " vs "
           << to_count << ")";
        p.fail(t[1].col, os.str());
        return std::nullopt;
      }
      bool have_rate = false, have_delay = false;
      std::size_t i = 3;
      auto need_value = [&](const Token& key) -> const Token* {
        if (i + 1 >= t.size()) {
          p.fail(key.col, "'" + key.text + "' needs a value");
          return nullptr;
        }
        return &t[i + 1];
      };
      while (i < t.size()) {
        const Token& key = t[i];
        if (key.text == "rate") {
          const Token* v = need_value(key);
          if (!v || !p.rate_token(*v, &link.rate_bps)) return std::nullopt;
          have_rate = true;
          i += 2;
        } else if (key.text == "delay") {
          const Token* v = need_value(key);
          if (!v || !p.time_token(*v, &link.delay)) return std::nullopt;
          have_delay = true;
          i += 2;
        } else if (key.text == "spread") {
          const Token* v = need_value(key);
          if (!v || !p.number_token(*v, &link.delay_spread)) {
            return std::nullopt;
          }
          if (link.delay_spread < 0.0 || link.delay_spread >= 1.0) {
            p.fail(v->col, "spread must be in [0, 1)");
            return std::nullopt;
          }
          i += 2;
        } else if (key.text == "queue") {
          const Token* kindTok = need_value(key);
          if (!kindTok) return std::nullopt;
          PortQueueSpec& q = link.queue;
          const Scenario& sc = p.spec.scenario;
          // Unset parameters resolve from the scenario NOW (parse time),
          // so the canonical rendering carries concrete values.
          if (kindTok->text == "gateway") {
            // The scenario's gateway discipline, whatever `set queue`
            // (or a campaign sweep) chose — parameters still override.
            q = gateway_port_queue(sc);
          } else if (kindTok->text == "droptail") {
            q.kind = PortQueueSpec::Kind::kDropTail;
            q.capacity = sc.gateway_buffer;
          } else if (kindTok->text == "red") {
            q.kind = PortQueueSpec::Kind::kRed;
            q.capacity = sc.gateway_buffer;
            q.red_min_th = sc.red_min_th;
            q.red_max_th = sc.red_max_th;
            q.red_max_p = sc.red_max_p;
            q.red_weight = sc.red_weight;
            q.red_ecn = sc.ecn;
            q.red_adaptive = sc.adaptive_red;
          } else if (kindTok->text == "drr") {
            q.kind = PortQueueSpec::Kind::kDrr;
            q.capacity = sc.gateway_buffer;
            q.drr_quantum_bytes = sc.wire_bytes();
          } else {
            p.fail(kindTok->col,
                   "unknown queue type '" + kindTok->text +
                       "' (want gateway, droptail, red or drr)");
            return std::nullopt;
          }
          i += 2;
          // Queue parameters consume the rest of the line.
          while (i < t.size()) {
            const Token& pk = t[i];
            const bool is_red = q.kind == PortQueueSpec::Kind::kRed;
            const bool is_drr = q.kind == PortQueueSpec::Kind::kDrr;
            if (pk.text == "cap") {
              const Token* v = need_value(pk);
              if (!v || !p.size_token(*v, &q.capacity)) return std::nullopt;
              i += 2;
            } else if (is_red && pk.text == "min") {
              const Token* v = need_value(pk);
              if (!v || !p.number_token(*v, &q.red_min_th)) return std::nullopt;
              i += 2;
            } else if (is_red && pk.text == "max") {
              const Token* v = need_value(pk);
              if (!v || !p.number_token(*v, &q.red_max_th)) return std::nullopt;
              i += 2;
            } else if (is_red && pk.text == "maxp") {
              const Token* v = need_value(pk);
              if (!v || !p.number_token(*v, &q.red_max_p)) return std::nullopt;
              i += 2;
            } else if (is_red && pk.text == "weight") {
              const Token* v = need_value(pk);
              if (!v || !p.number_token(*v, &q.red_weight)) return std::nullopt;
              i += 2;
            } else if (is_red && pk.text == "ecn") {
              q.red_ecn = true;
              i += 1;
            } else if (is_red && pk.text == "adaptive") {
              q.red_adaptive = true;
              i += 1;
            } else if (is_drr && pk.text == "quantum") {
              const Token* v = need_value(pk);
              double d = 0.0;
              if (!v || !p.number_token(*v, &d)) return std::nullopt;
              if (!(d >= 1 && d <= INT_MAX)) {
                p.fail(v->col, "quantum must be 1 to 2147483647 bytes");
                return std::nullopt;
              }
              q.drr_quantum_bytes = static_cast<int>(d);
              i += 2;
            } else {
              p.fail(pk.col, "unknown " + kindTok->text + " queue parameter '" +
                                 pk.text + "'");
              return std::nullopt;
            }
          }
          if (q.kind == PortQueueSpec::Kind::kRed &&
              q.red_min_th >= q.red_max_th) {
            std::ostringstream os;
            os << "red min threshold (" << q.red_min_th
               << ") must be below max (" << q.red_max_th << ")";
            p.fail(kindTok->col, os.str());
            return std::nullopt;
          }
        } else {
          p.fail(key.col, "unknown link attribute '" + key.text + "'");
          return std::nullopt;
        }
      }
      if (!have_rate) {
        p.fail(t[0].col, "link needs a rate");
        return std::nullopt;
      }
      if (!have_delay) {
        p.fail(t[0].col, "link needs a delay");
        return std::nullopt;
      }
      if (link.rate_bps <= 0.0) {
        p.fail(t[0].col, "link rate must be positive");
        return std::nullopt;
      }
      if (link.delay < 0.0) {
        p.fail(t[0].col, "link delay must be non-negative");
        return std::nullopt;
      }
      p.spec.links.push_back(link);
    } else if (kw == "flow") {
      if (!start_graph()) return std::nullopt;
      if (t.size() < 3) {
        p.fail(t[0].col, "usage: flow <src> <dst> [transport <t>] [delack] "
                         "[workload poisson <MEAN>]");
        return std::nullopt;
      }
      TopoFlowSpec flow;
      flow.line = p.lineno;
      if (!p.node_token(t[1], &flow.src) || !p.node_token(t[2], &flow.dst)) {
        return std::nullopt;
      }
      const int dst_count = p.spec.nodes[static_cast<std::size_t>(flow.dst)].count;
      if (dst_count != 1) {
        std::ostringstream os;
        os << "flow destination '" << t[2].text
           << "' must be a single node (group of " << dst_count << ")";
        p.fail(t[2].col, os.str());
        return std::nullopt;
      }
      const Scenario& sc = p.spec.scenario;
      flow.transport = sc.transport;
      flow.delayed_ack = sc.delayed_ack;
      flow.mean_interarrival = sc.mean_interarrival;
      std::size_t i = 3;
      while (i < t.size()) {
        const Token& key = t[i];
        if (key.text == "transport") {
          if (i + 1 >= t.size()) {
            p.fail(key.col, "'transport' needs a value");
            return std::nullopt;
          }
          if (!parse_transport(t[i + 1].text, &flow.transport)) {
            p.fail(t[i + 1].col,
                   "unknown transport '" + t[i + 1].text + "'");
            return std::nullopt;
          }
          i += 2;
        } else if (key.text == "delack") {
          flow.delayed_ack = true;
          i += 1;
        } else if (key.text == "nodelack") {
          flow.delayed_ack = false;
          i += 1;
        } else if (key.text == "workload") {
          if (i + 2 >= t.size()) {
            p.fail(key.col, "usage: workload poisson <MEAN>");
            return std::nullopt;
          }
          if (t[i + 1].text != "poisson") {
            p.fail(t[i + 1].col,
                   "unknown workload '" + t[i + 1].text + "' (want poisson)");
            return std::nullopt;
          }
          if (!p.time_token(t[i + 2], &flow.mean_interarrival)) {
            return std::nullopt;
          }
          if (flow.mean_interarrival <= 0.0) {
            p.fail(t[i + 2].col, "workload mean must be positive");
            return std::nullopt;
          }
          i += 3;
        } else {
          p.fail(key.col, "unknown flow attribute '" + key.text + "'");
          return std::nullopt;
        }
      }
      p.spec.flows.push_back(flow);
    } else if (kw == "measure") {
      if (!start_graph()) return std::nullopt;
      if (t.size() != 3) {
        p.fail(t[0].col, "usage: measure <from> <to>");
        return std::nullopt;
      }
      if (measure) {
        p.fail(t[0].col, "duplicate measure statement");
        return std::nullopt;
      }
      measure = PendingMeasure{t[1].text, t[2].text, p.lineno, t[1].col};
    } else {
      p.fail(t[0].col, "unknown statement '" + kw + "'");
      return std::nullopt;
    }
    any_statement = true;
  }

  // ---- Whole-file validation. -----------------------------------------
  auto file_fail = [&](int line, int col, std::string msg) {
    err->line = line;
    err->col = col;
    err->message = std::move(msg);
    return std::nullopt;
  };
  if (p.spec.nodes.empty()) return file_fail(0, 0, "no node statements");
  if (p.spec.links.empty()) return file_fail(0, 0, "no link statements");
  if (p.spec.flows.empty()) return file_fail(0, 0, "no flow statements");

  if (measure) {
    const int from = p.find_node(measure->from);
    const int to = p.find_node(measure->to);
    if (from < 0) {
      return file_fail(measure->line, measure->col,
                       "unknown node '" + measure->from + "'");
    }
    if (to < 0) {
      return file_fail(measure->line, measure->col,
                       "unknown node '" + measure->to + "'");
    }
    for (std::size_t i = 0; i < p.spec.links.size(); ++i) {
      if (p.spec.links[i].from == from && p.spec.links[i].to == to) {
        p.spec.measure_link = static_cast<int>(i);
        break;
      }
    }
    if (p.spec.measure_link < 0) {
      return file_fail(measure->line, measure->col,
                       "measure references undeclared link '" + measure->from +
                           " -> " + measure->to + "'");
    }
  } else {
    for (std::size_t i = 0; i < p.spec.links.size(); ++i) {
      if (p.spec.links[i].queue.kind != PortQueueSpec::Kind::kDefault) {
        p.spec.measure_link = static_cast<int>(i);
        break;
      }
    }
    if (p.spec.measure_link < 0) {
      return file_fail(0, 0,
                       "no measure statement and no link declares an explicit "
                       "queue — nothing to measure");
    }
  }

  // Reachability: every flow needs a forward route (src -> dst) and a
  // reverse route for its ACKs. Expand groups and BFS over directed links.
  {
    const int total = p.spec.total_nodes();
    std::vector<std::vector<int>> adj(static_cast<std::size_t>(total));
    for (const TopoLinkSpec& l : p.spec.links) {
      const int fc = p.spec.node_count(l.from);
      const int tc = p.spec.node_count(l.to);
      const int c = std::max(fc, tc);
      for (int j = 0; j < c; ++j) {
        const int u = p.spec.node_id(l.from, fc > 1 ? j : 0);
        const int v = p.spec.node_id(l.to, tc > 1 ? j : 0);
        adj[static_cast<std::size_t>(u)].push_back(v);
      }
    }
    auto reaches = [&](int from, int to) {
      std::vector<char> seen(static_cast<std::size_t>(total), 0);
      std::queue<int> q;
      q.push(from);
      seen[static_cast<std::size_t>(from)] = 1;
      while (!q.empty()) {
        const int u = q.front();
        q.pop();
        if (u == to) return true;
        for (const int v : adj[static_cast<std::size_t>(u)]) {
          if (!seen[static_cast<std::size_t>(v)]) {
            seen[static_cast<std::size_t>(v)] = 1;
            q.push(v);
          }
        }
      }
      return false;
    };
    for (const TopoFlowSpec& f : p.spec.flows) {
      const int dst = p.spec.node_id(f.dst, 0);
      for (int j = 0; j < p.spec.node_count(f.src); ++j) {
        const int src = p.spec.node_id(f.src, j);
        const std::string& sname =
            p.spec.nodes[static_cast<std::size_t>(f.src)].name;
        const std::string& dname =
            p.spec.nodes[static_cast<std::size_t>(f.dst)].name;
        if (!reaches(src, dst)) {
          return file_fail(f.line, 1, "no route from '" + sname + "' to '" +
                                          dname + "'");
        }
        if (!reaches(dst, src)) {
          return file_fail(f.line, 1, "no reverse route from '" + dname +
                                          "' back to '" + sname +
                                          "' (ACK path)");
        }
      }
    }
  }
  return p.spec;
}

std::optional<TopoSpec> load_topo_file(const std::string& path, TopoError* err,
                                       const TopoOverrides& overrides) {
  std::ifstream in(path);
  if (!in) {
    if (err) {
      err->line = 0;
      err->col = 0;
      err->message = "cannot open file";
    }
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string stem = std::filesystem::path(path).stem().string();
  return parse_topo(buf.str(), stem, err, overrides);
}

}  // namespace burst
