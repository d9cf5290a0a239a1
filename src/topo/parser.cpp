#include "src/topo/parser.hpp"

#include <climits>
#include <filesystem>
#include <fstream>
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

std::vector<LineToken> tokenize_line(const std::string& line) {
  std::vector<LineToken> out;
  const auto blank = [](char c) {
    return c == ' ' || c == '\t' || c == '\r';
  };
  std::size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (c == '#') break;
    if (blank(c)) {
      ++i;
      continue;
    }
    const std::size_t start = i;
    while (i < line.size() && !blank(line[i]) && line[i] != '#') ++i;
    out.push_back({line.substr(start, i - start), static_cast<int>(start) + 1});
  }
  return out;
}

bool read_text_file(const std::string& path, std::string* text,
                    TopoError* err) {
  std::ifstream in(path);
  if (!in) {
    if (err) *err = {0, 0, "cannot open file"};
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *text = buf.str();
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

  bool node_token(const LineToken& t, int* out) {
    const int idx = find_node(t.text);
    if (idx < 0) return fail(t.col, "unknown node '" + t.text + "'");
    *out = idx;
    return true;
  }

  // Numeric tokens, with `$field` substitution against the current
  // scenario. The three flavors differ only in suffix handling.
  bool number_token(const LineToken& t, double* out) {
    if (!t.text.empty() && t.text[0] == '$') {
      if (!scenario_field_value(spec.scenario, t.text.substr(1), out)) {
        return fail(t.col, "unknown scenario field reference '" + t.text + "'");
      }
      return true;
    }
    if (!parse_number(t.text, out)) {
      return fail(t.col, "bad number '" + t.text + "'");
    }
    return true;
  }
  bool rate_token(const LineToken& t, double* out) {
    if (!t.text.empty() && t.text[0] == '$') return number_token(t, out);
    if (!parse_rate(t.text, out)) {
      return fail(t.col, "bad rate '" + t.text +
                             "' (want NUMBER[bps|kbps|Mbps|Gbps])");
    }
    return true;
  }
  bool time_token(const LineToken& t, double* out) {
    if (!t.text.empty() && t.text[0] == '$') return number_token(t, out);
    if (!parse_time(t.text, out)) {
      return fail(t.col, "bad time '" + t.text + "' (want NUMBER[s|ms|us])");
    }
    return true;
  }
  bool size_token(const LineToken& t, std::size_t* out) {
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
    const std::vector<LineToken> t = tokenize_line(line);
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
      auto need_value = [&](const LineToken& key) -> const LineToken* {
        if (i + 1 >= t.size()) {
          p.fail(key.col, "'" + key.text + "' needs a value");
          return nullptr;
        }
        return &t[i + 1];
      };
      while (i < t.size()) {
        const LineToken& key = t[i];
        if (key.text == "rate") {
          const LineToken* v = need_value(key);
          if (!v || !p.rate_token(*v, &link.rate_bps)) return std::nullopt;
          have_rate = true;
          i += 2;
        } else if (key.text == "delay") {
          const LineToken* v = need_value(key);
          if (!v || !p.time_token(*v, &link.delay)) return std::nullopt;
          have_delay = true;
          i += 2;
        } else if (key.text == "spread") {
          const LineToken* v = need_value(key);
          if (!v || !p.number_token(*v, &link.delay_spread)) {
            return std::nullopt;
          }
          if (!(link.delay_spread >= 0.0 && link.delay_spread < 1.0)) {
            p.fail(v->col, "spread must be in [0, 1)");
            return std::nullopt;
          }
          i += 2;
        } else if (key.text == "queue") {
          const LineToken* kindTok = need_value(key);
          if (!kindTok) return std::nullopt;
          PortQueueSpec& q = link.queue;
          // Unset parameters resolve from the scenario NOW (parse time),
          // so the canonical rendering carries concrete values: the
          // defaults of the generated dumbbell's gateway queue of that
          // discipline. `gateway` is the scenario's own discipline,
          // whatever `set queue` (or a campaign sweep) chose.
          Scenario discipline = p.spec.scenario;
          if (kindTok->text == "droptail") {
            discipline.gateway = GatewayQueue::kDropTail;
          } else if (kindTok->text == "red") {
            discipline.gateway = GatewayQueue::kRed;
          } else if (kindTok->text == "drr") {
            discipline.gateway = GatewayQueue::kDrr;
          } else if (kindTok->text != "gateway") {
            p.fail(kindTok->col,
                   "unknown queue type '" + kindTok->text +
                       "' (want gateway, droptail, red or drr)");
            return std::nullopt;
          }
          q = gateway_port_queue(discipline);
          i += 2;
          // Queue parameters consume the rest of the line.
          while (i < t.size()) {
            const LineToken& pk = t[i];
            const bool is_red = q.kind == PortQueueSpec::Kind::kRed;
            const bool is_drr = q.kind == PortQueueSpec::Kind::kDrr;
            if (pk.text == "cap") {
              const LineToken* v = need_value(pk);
              if (!v || !p.size_token(*v, &q.capacity)) return std::nullopt;
              i += 2;
            } else if (is_red && pk.text == "min") {
              const LineToken* v = need_value(pk);
              if (!v || !p.number_token(*v, &q.red_min_th)) return std::nullopt;
              i += 2;
            } else if (is_red && pk.text == "max") {
              const LineToken* v = need_value(pk);
              if (!v || !p.number_token(*v, &q.red_max_th)) return std::nullopt;
              i += 2;
            } else if (is_red && pk.text == "maxp") {
              const LineToken* v = need_value(pk);
              if (!v || !p.number_token(*v, &q.red_max_p)) return std::nullopt;
              i += 2;
            } else if (is_red && pk.text == "weight") {
              const LineToken* v = need_value(pk);
              if (!v || !p.number_token(*v, &q.red_weight)) return std::nullopt;
              i += 2;
            } else if (is_red && pk.text == "ecn") {
              q.red_ecn = true;
              i += 1;
            } else if (is_red && pk.text == "adaptive") {
              q.red_adaptive = true;
              i += 1;
            } else if (is_drr && pk.text == "quantum") {
              const LineToken* v = need_value(pk);
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
        const LineToken& key = t[i];
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
  // reverse route for its ACKs. Two searches per flow statement, from its
  // destination against and along the member links, answer both for
  // every source member at once.
  const TopoGraph graph(p.spec);
  int searched = -1;
  std::vector<int> into_dst, from_dst;
  for (const MemberFlow& m : graph.flows()) {
    if (m.statement != searched) {
      searched = m.statement;
      into_dst = graph.first_hops(m.dst, false);
      from_dst = graph.first_hops(m.dst, true);
    }
    const auto src = static_cast<std::size_t>(m.src);
    const TopoFlowSpec& f =
        p.spec.flows[static_cast<std::size_t>(m.statement)];
    const std::string& sname =
        p.spec.nodes[static_cast<std::size_t>(f.src)].name;
    const std::string& dname =
        p.spec.nodes[static_cast<std::size_t>(f.dst)].name;
    if (m.src != m.dst && into_dst[src] < 0) {
      return file_fail(f.line, 1,
                       "no route from '" + sname + "' to '" + dname + "'");
    }
    if (m.src != m.dst && from_dst[src] < 0) {
      return file_fail(f.line, 1, "no reverse route from '" + dname +
                                      "' back to '" + sname + "' (ACK path)");
    }
  }
  return p.spec;
}

std::optional<TopoSpec> load_topo_file(const std::string& path, TopoError* err,
                                       const TopoOverrides& overrides) {
  std::string text;
  if (!read_text_file(path, &text, err)) return std::nullopt;
  const std::string stem = std::filesystem::path(path).stem().string();
  return parse_topo(text, stem, err, overrides);
}

}  // namespace burst
