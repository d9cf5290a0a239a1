// Declarative topology descriptions (the `.topo` format's in-memory
// model). A TopoSpec is pure data: named node groups, directed links with
// rate/delay/queue discipline, and transport flows with workload
// bindings, all resolved against a base Scenario. The builder
// (src/topo/builder.hpp) turns a spec into a live Node/SimplexLink/queue
// graph; the parser (src/topo/parser.hpp) reads the text format; and
// topo_key() registers a spec with the 128-bit scenario fingerprint.
//
// Identity contract: canonical() renders the *graph* (not the node
// names) deterministically, doubles in hexfloat. Two specs with equal
// canonical strings build bit-identical networks for the same Scenario.
// A spec whose canonical string equals make_dumbbell_spec(its scenario)'s
// IS the paper dumbbell, and topo_key() then returns the plain
// scenario_key() so topology-file runs share cache entries — and pinned
// identity hashes — with the hard-coded path.
#pragma once

#include <string>
#include <vector>

#include "src/core/scenario.hpp"
#include "src/run/scenario_key.hpp"

namespace burst {

/// Queue discipline bound to one link statement's transmit port.
/// kDefault is "unremarkable edge buffering": a DropTail queue of
/// scenario.client_queue_buffer packets, and — unlike every explicit
/// kind — it does NOT consume an RNG fork at build time (see the fork
/// discipline note on TopoNet).
struct PortQueueSpec {
  enum class Kind { kDefault, kDropTail, kRed, kDrr };
  Kind kind = Kind::kDefault;
  std::size_t capacity = 0;  // packets; meaningless for kDefault

  // RED (values resolved from the Scenario at parse time).
  double red_min_th = 0.0;
  double red_max_th = 0.0;
  double red_max_p = 0.0;
  double red_weight = 0.0;
  bool red_ecn = false;
  bool red_adaptive = false;

  // DRR.
  int drr_quantum_bytes = 0;
};

/// One `node` statement. count > 1 declares a group whose members expand
/// pairwise in links and per-member in flows.
struct TopoNodeSpec {
  std::string name;
  int count = 1;
  int line = 0;  // 1-based source line, 0 for generated specs
};

/// One directed `link` statement between node-spec indices. Group
/// endpoints expand: equal counts pair member j with member j; a group on
/// exactly one side fans out/in to the single node on the other.
struct TopoLinkSpec {
  int from = 0;
  int to = 0;
  double rate_bps = 0.0;
  Time delay = 0.0;
  /// Heterogeneous-delay spread across the expanded members, exactly like
  /// Scenario::client_delay_for: member j of c gets
  /// delay * (1 + spread * (2j/(c-1) - 1)).
  double delay_spread = 0.0;
  PortQueueSpec queue;
  int line = 0;
};

/// One `flow` statement: src (possibly a group: one flow per member) to a
/// single-node dst. Transport/delayed-ack/workload are resolved against
/// the Scenario at parse time.
struct TopoFlowSpec {
  int src = 0;
  int dst = 0;
  Transport transport = Transport::kReno;
  bool delayed_ack = false;
  double mean_interarrival = 0.0;  // Poisson workload mean (seconds)
  int line = 0;
};

struct TopoSpec {
  std::string name;    // scenario label for artifacts; NOT part of the key
  Scenario scenario;   // base parameters (every `set` applied)
  std::vector<TopoNodeSpec> nodes;
  std::vector<TopoLinkSpec> links;
  std::vector<TopoFlowSpec> flows;
  /// Link-statement index whose queue is the measured bottleneck (c.o.v.
  /// binning + reported gateway stats). Defaults to the first link with
  /// an explicit queue.
  int measure_link = -1;

  int total_nodes() const;
  /// NodeId of member @p member of node group @p spec_index (groups claim
  /// contiguous id ranges in declaration order).
  int node_id(int spec_index, int member = 0) const;
  int node_count(int spec_index) const { return nodes[static_cast<std::size_t>(spec_index)].count; }

  /// Deterministic rendering of the graph (doubles in hexfloat; node
  /// names excluded, so renaming nodes never re-keys a scenario).
  std::string canonical() const;
};

/// The paper's Figure 1 dumbbell for @p sc, as a spec:
///
///   clients 0..N-1  --(mu_c, tau_c)-->  gateway  --(mu_s, tau_s)-->  server
///
/// Node ids: client i = i, gateway = N, server = N+1; flow id = client
/// index; the gateway->server queue is the measured bottleneck. Building
/// it through TopoNet reproduces the historical hard-coded dumbbell bit
/// for bit.
TopoSpec make_dumbbell_spec(const Scenario& sc);

/// @p sc's gateway discipline (DropTail/RED/DRR + its parameters) as an
/// explicit per-port queue spec — what `queue gateway` resolves to in
/// .topo files, and what the generated dumbbell/tandem bottlenecks use.
PortQueueSpec gateway_port_queue(const Scenario& sc);

/// The two-bottleneck parking-lot topology, the multi-gateway extension
/// of Figure 1 used by the multihop ablation:
///
///   clients --(mu_c)--> gw1 --(mu_s)--> gw2 --(r*mu_s)--> server
///
/// with r = @p second_hop_ratio, so both queues are exercised. Link
/// statement 0 (gw1->gw2) is measured; statement 1 is the second hop.
TopoSpec make_tandem_spec(const Scenario& sc, double second_hop_ratio);

/// True iff @p spec's graph is canonically the paper dumbbell for its own
/// scenario (same canonical rendering as make_dumbbell_spec).
bool is_canonical_dumbbell(const TopoSpec& spec);

/// Fingerprint of one topology experiment. Canonical-dumbbell specs get
/// the plain scenario_key() (bit-for-bit cache compatibility with the
/// hard-coded path); everything else gets scenario_key_with_topology()
/// with versioned topo fields appended.
ScenarioKey topo_key(const TopoSpec& spec, const ExperimentOptions& opts = {});

// TopoGraph: a TopoSpec with its node groups expanded into member links
// (endpoints, per-member delay) and one flow per source member, plus the
// route search over them: the one expansion the parser's reachability
// check, the LP partitioner and the builder (TopoNet) all read.
//
// Expansion order is declaration order, members j = 0..count-1 within a
// statement; the builder constructs links (forking the RNG for their
// queues) and flows in exactly this order.

/// Member j of a link statement. Equal group counts pair member j with
/// member j; a group on one side fans out or in to the single node on the
/// other.
struct MemberLink {
  int from = 0;  // node ids
  int to = 0;
  /// The statement's delay with its delay_spread applied over the
  /// members, the expression Scenario::client_delay_for uses:
  /// delay * (1 + spread * (2j/(count-1) - 1)).
  Time delay = 0.0;
  int statement = 0;  // index into TopoSpec::links
};

/// The flow of one source member of a flow statement.
struct MemberFlow {
  int src = 0;  // node ids
  int dst = 0;
  int statement = 0;  // index into TopoSpec::flows
};

class TopoGraph {
 public:
  explicit TopoGraph(const TopoSpec& spec);

  int nodes() const { return static_cast<int>(out_.size()); }
  const std::vector<MemberLink>& links() const { return links_; }
  const std::vector<MemberFlow>& flows() const { return flows_; }
  /// Index into links() of link statement @p statement's member 0.
  int first_member(int statement) const {
    return first_member_[static_cast<std::size_t>(statement)];
  }
  /// Member links leaving @p node, in expansion order.
  const std::vector<int>& out_links(int node) const {
    return out_[static_cast<std::size_t>(node)];
  }

  /// Breadth-first search from @p root over the member links, each
  /// node's links in expansion order: first_hops(root, true)[v] is the
  /// link leaving root on the first declared shortest path to v;
  /// first_hops(root, false)[v] is the link entering root on the first
  /// declared shortest path from v. -1 for root and for nodes the search
  /// never reaches.
  std::vector<int> first_hops(int root, bool forward) const;
  /// True iff every node reaches every other (nodes() > 0).
  bool strongly_connected() const;

 private:
  std::vector<MemberLink> links_;
  std::vector<int> first_member_;
  std::vector<MemberFlow> flows_;
  // Per node, the member links leaving (out_) and entering (in_) it, in
  // expansion order.
  std::vector<std::vector<int>> out_, in_;
};

}  // namespace burst
