#include "src/topo/spec.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace burst {

int TopoSpec::total_nodes() const {
  int total = 0;
  for (const TopoNodeSpec& n : nodes) total += n.count;
  return total;
}

int TopoSpec::node_id(int spec_index, int member) const {
  int base = 0;
  for (int i = 0; i < spec_index; ++i) {
    base += nodes[static_cast<std::size_t>(i)].count;
  }
  assert(member >= 0 &&
         member < nodes[static_cast<std::size_t>(spec_index)].count);
  return base + member;
}

std::string TopoSpec::canonical() const {
  std::ostringstream os;
  os << std::hexfloat;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    os << 'n' << i << '=' << std::dec << nodes[i].count << ';';
  }
  for (std::size_t i = 0; i < links.size(); ++i) {
    const TopoLinkSpec& l = links[i];
    os << 'l' << i << '=' << std::dec << l.from << '>' << l.to
       << ",rate=" << std::hexfloat << l.rate_bps << ",delay=" << l.delay
       << ",spread=" << l.delay_spread;
    switch (l.queue.kind) {
      case PortQueueSpec::Kind::kDefault:
        os << ",q=none";
        break;
      case PortQueueSpec::Kind::kDropTail:
        os << ",q=droptail,cap=" << std::dec << l.queue.capacity;
        break;
      case PortQueueSpec::Kind::kRed:
        os << ",q=red,min=" << std::hexfloat << l.queue.red_min_th
           << ",max=" << l.queue.red_max_th << ",maxp=" << l.queue.red_max_p
           << ",w=" << l.queue.red_weight << ",cap=" << std::dec
           << l.queue.capacity << ",ecn=" << (l.queue.red_ecn ? 1 : 0)
           << ",ar=" << (l.queue.red_adaptive ? 1 : 0);
        break;
      case PortQueueSpec::Kind::kDrr:
        os << ",q=drr,cap=" << std::dec << l.queue.capacity
           << ",quantum=" << l.queue.drr_quantum_bytes;
        break;
    }
    os << ';';
  }
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const TopoFlowSpec& f = flows[i];
    os << 'f' << i << '=' << std::dec << f.src << '>' << f.dst
       << ",t=" << to_string(f.transport) << ",da=" << (f.delayed_ack ? 1 : 0)
       << ",poisson=" << std::hexfloat << f.mean_interarrival << ';';
  }
  os << "measure=" << std::dec << measure_link << ';';
  return os.str();
}

/// The gateway discipline of @p sc as an explicit per-port queue spec —
/// explicit even for DropTail, because the historical hard-coded dumbbell
/// consumed one RNG fork for the gateway queue unconditionally and the
/// builder's fork discipline is "one fork per explicit queue".
PortQueueSpec gateway_port_queue(const Scenario& sc) {
  PortQueueSpec q;
  switch (sc.gateway) {
    case GatewayQueue::kRed: {
      q.kind = PortQueueSpec::Kind::kRed;
      q.capacity = sc.scaled_gateway_buffer();
      q.red_min_th = sc.scaled_red_min_th();
      q.red_max_th = sc.scaled_red_max_th();
      q.red_max_p = sc.red_max_p;
      q.red_weight = sc.red_weight;
      q.red_ecn = sc.ecn;
      q.red_adaptive = sc.adaptive_red;
      break;
    }
    case GatewayQueue::kDrr:
      q.kind = PortQueueSpec::Kind::kDrr;
      q.capacity = sc.scaled_gateway_buffer();
      q.drr_quantum_bytes = sc.wire_bytes();
      break;
    case GatewayQueue::kDropTail:
      q.kind = PortQueueSpec::Kind::kDropTail;
      q.capacity = sc.scaled_gateway_buffer();
      break;
  }
  return q;
}

TopoSpec make_dumbbell_spec(const Scenario& sc) {
  TopoSpec spec;
  spec.name = "dumbbell";
  spec.scenario = sc;
  // Node ids: client i = i, gateway = N, server = N+1 — declaration order
  // fixes the layout the historical hard-coded dumbbell used.
  spec.nodes.push_back({"client", sc.num_clients, 0});
  spec.nodes.push_back({"gateway", 1, 0});
  spec.nodes.push_back({"server", 1, 0});
  const int client = 0, gateway = 1, server = 2;

  // Link statement order mirrors the hard-coded construction: bottleneck
  // first (its explicit queue takes the first RNG fork), then the ACK
  // reverse path, then the client edges.
  TopoLinkSpec bottleneck;
  bottleneck.from = gateway;
  bottleneck.to = server;
  bottleneck.rate_bps = sc.scaled_bottleneck_bw_bps();
  bottleneck.delay = sc.bottleneck_delay;
  bottleneck.queue = gateway_port_queue(sc);
  spec.links.push_back(bottleneck);

  TopoLinkSpec reverse;
  reverse.from = server;
  reverse.to = gateway;
  reverse.rate_bps = sc.scaled_bottleneck_bw_bps();
  reverse.delay = sc.bottleneck_delay;
  spec.links.push_back(reverse);

  TopoLinkSpec up;
  up.from = client;
  up.to = gateway;
  up.rate_bps = sc.client_bw_bps;
  up.delay = sc.client_delay;
  up.delay_spread = sc.client_delay_spread;
  spec.links.push_back(up);

  TopoLinkSpec down;
  down.from = gateway;
  down.to = client;
  down.rate_bps = sc.client_bw_bps;
  down.delay = sc.client_delay;
  down.delay_spread = sc.client_delay_spread;
  spec.links.push_back(down);

  TopoFlowSpec flow;
  flow.src = client;
  flow.dst = server;
  flow.transport = sc.transport;
  flow.delayed_ack = sc.delayed_ack;
  flow.mean_interarrival = sc.mean_interarrival;
  spec.flows.push_back(flow);

  spec.measure_link = 0;
  return spec;
}

TopoSpec make_tandem_spec(const Scenario& sc, double second_hop_ratio) {
  TopoSpec spec;
  spec.name = "parking_lot";
  spec.scenario = sc;
  spec.nodes.push_back({"client", sc.num_clients, 0});
  spec.nodes.push_back({"gw1", 1, 0});
  spec.nodes.push_back({"gw2", 1, 0});
  spec.nodes.push_back({"server", 1, 0});
  const int client = 0, gw1 = 1, gw2 = 2, server = 3;
  const double bw2 = sc.scaled_bottleneck_bw_bps() * second_hop_ratio;

  TopoLinkSpec hop1;
  hop1.from = gw1;
  hop1.to = gw2;
  hop1.rate_bps = sc.scaled_bottleneck_bw_bps();
  hop1.delay = sc.bottleneck_delay;
  hop1.queue = gateway_port_queue(sc);
  spec.links.push_back(hop1);

  TopoLinkSpec hop2;
  hop2.from = gw2;
  hop2.to = server;
  hop2.rate_bps = bw2;
  hop2.delay = sc.bottleneck_delay;
  hop2.queue = gateway_port_queue(sc);
  spec.links.push_back(hop2);

  TopoLinkSpec rev1;
  rev1.from = server;
  rev1.to = gw2;
  rev1.rate_bps = bw2;
  rev1.delay = sc.bottleneck_delay;
  spec.links.push_back(rev1);

  TopoLinkSpec rev2;
  rev2.from = gw2;
  rev2.to = gw1;
  rev2.rate_bps = sc.scaled_bottleneck_bw_bps();
  rev2.delay = sc.bottleneck_delay;
  spec.links.push_back(rev2);

  TopoLinkSpec up;
  up.from = client;
  up.to = gw1;
  up.rate_bps = sc.client_bw_bps;
  up.delay = sc.client_delay;
  up.delay_spread = sc.client_delay_spread;
  spec.links.push_back(up);

  TopoLinkSpec down;
  down.from = gw1;
  down.to = client;
  down.rate_bps = sc.client_bw_bps;
  down.delay = sc.client_delay;
  down.delay_spread = sc.client_delay_spread;
  spec.links.push_back(down);

  TopoFlowSpec flow;
  flow.src = client;
  flow.dst = server;
  flow.transport = sc.transport;
  flow.delayed_ack = sc.delayed_ack;
  flow.mean_interarrival = sc.mean_interarrival;
  spec.flows.push_back(flow);

  spec.measure_link = 0;
  return spec;
}

bool is_canonical_dumbbell(const TopoSpec& spec) {
  return spec.canonical() == make_dumbbell_spec(spec.scenario).canonical();
}

ScenarioKey topo_key(const TopoSpec& spec, const ExperimentOptions& opts) {
  if (is_canonical_dumbbell(spec)) return scenario_key(spec.scenario, opts);
  return scenario_key_with_topology(spec.scenario, spec.canonical(), opts);
}

TopoGraph::TopoGraph(const TopoSpec& spec)
    : out_(static_cast<std::size_t>(spec.total_nodes())),
      in_(out_.size()) {
  std::size_t member_links = 0;
  for (const TopoLinkSpec& l : spec.links) {
    member_links += static_cast<std::size_t>(
        std::max(spec.node_count(l.from), spec.node_count(l.to)));
  }
  links_.reserve(member_links);
  first_member_.reserve(spec.links.size());
  for (std::size_t s = 0; s < spec.links.size(); ++s) {
    const TopoLinkSpec& l = spec.links[s];
    const int fc = spec.node_count(l.from);
    const int tc = spec.node_count(l.to);
    const int count = std::max(fc, tc);
    first_member_.push_back(static_cast<int>(links_.size()));
    for (int j = 0; j < count; ++j) {
      MemberLink m;
      m.from = spec.node_id(l.from, fc > 1 ? j : 0);
      m.to = spec.node_id(l.to, tc > 1 ? j : 0);
      m.delay = l.delay;
      if (l.delay_spread > 0.0 && count >= 2) {
        const double position = 2.0 * static_cast<double>(j) /
                                    static_cast<double>(count - 1) -
                                1.0;
        m.delay = l.delay * (1.0 + l.delay_spread * position);
      }
      m.statement = static_cast<int>(s);
      const auto e = static_cast<int>(links_.size());
      out_[static_cast<std::size_t>(m.from)].push_back(e);
      in_[static_cast<std::size_t>(m.to)].push_back(e);
      links_.push_back(m);
    }
  }
  for (std::size_t s = 0; s < spec.flows.size(); ++s) {
    const TopoFlowSpec& f = spec.flows[s];
    const int dst = spec.node_id(f.dst, 0);
    for (int j = 0; j < spec.node_count(f.src); ++j) {
      flows_.push_back({spec.node_id(f.src, j), dst, static_cast<int>(s)});
    }
  }
}

std::vector<int> TopoGraph::first_hops(int root, bool forward) const {
  const std::vector<std::vector<int>>& adj = forward ? out_ : in_;
  std::vector<int> hop(static_cast<std::size_t>(nodes()), -1);
  std::vector<char> seen(hop.size(), 0);
  seen[static_cast<std::size_t>(root)] = 1;
  std::vector<int> frontier{root};  // FIFO: read at head, append at back
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const int u = frontier[head];
    for (const int e : adj[static_cast<std::size_t>(u)]) {
      const MemberLink& m = links_[static_cast<std::size_t>(e)];
      const auto v = static_cast<std::size_t>(forward ? m.to : m.from);
      if (seen[v]) continue;
      seen[v] = 1;
      hop[v] = u == root ? e : hop[static_cast<std::size_t>(u)];
      frontier.push_back(static_cast<int>(v));
    }
  }
  return hop;
}

bool TopoGraph::strongly_connected() const {
  for (const bool forward : {true, false}) {
    const std::vector<int> hop = first_hops(0, forward);
    if (std::count(hop.begin(), hop.end(), -1) > 1) return false;
  }
  return true;
}

}  // namespace burst
