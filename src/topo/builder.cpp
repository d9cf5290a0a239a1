#include "src/topo/builder.hpp"

#include <cassert>

#include "src/net/drop_tail_queue.hpp"
#include "src/net/drr_queue.hpp"
#include "src/net/red_queue.hpp"
#include "src/transport/tcp_newreno.hpp"
#include "src/transport/tcp_reno.hpp"
#include "src/transport/tcp_sack.hpp"
#include "src/transport/tcp_tahoe.hpp"
#include "src/transport/tcp_vegas.hpp"

namespace burst {

namespace {

std::unique_ptr<Queue> make_port_queue(const TopoLinkSpec& l,
                                       const Scenario& sc, Random rng) {
  const PortQueueSpec& q = l.queue;
  switch (q.kind) {
    case PortQueueSpec::Kind::kDefault:
      return std::make_unique<DropTailQueue>(sc.client_queue_buffer);
    case PortQueueSpec::Kind::kDropTail:
      return std::make_unique<DropTailQueue>(q.capacity);
    case PortQueueSpec::Kind::kRed: {
      RedConfig red;
      red.min_th = q.red_min_th;
      red.max_th = q.red_max_th;
      red.max_p = q.red_max_p;
      red.weight = q.red_weight;
      red.capacity = q.capacity;
      // Averaging clock follows THIS link's rate (the hard-coded parking
      // lot already did this per hop; for the dumbbell it equals the
      // bottleneck rate, preserving identity).
      red.mean_pkt_tx_time = transmission_time(sc.wire_bytes(), l.rate_bps);
      red.ecn = q.red_ecn;
      red.adaptive = q.red_adaptive;
      return std::make_unique<RedQueue>(red, rng);
    }
    case PortQueueSpec::Kind::kDrr: {
      DrrConfig drr;
      drr.capacity = q.capacity;
      drr.quantum_bytes = q.drr_quantum_bytes;
      return std::make_unique<DrrQueue>(drr);
    }
  }
  return std::make_unique<DropTailQueue>(sc.client_queue_buffer);
}

// The silence that closes a congestion event: a drop more than this long
// after the previous one opens the next drop cluster (finalize_trace).
constexpr Time kCongestionEventGap = 0.01;

TcpConfig make_tcp_config(const Scenario& sc) {
  TcpConfig cfg;
  cfg.payload_bytes = sc.payload_bytes;
  cfg.advertised_window = sc.advertised_window;
  cfg.rto = sc.rto;
  cfg.ecn = sc.ecn;
  cfg.limited_transmit = sc.limited_transmit;
  cfg.cwnd_validation = sc.cwnd_validation;
  return cfg;
}

}  // namespace

TopoNet::TopoNet(Simulator& sim, const TopoSpec& spec)
    : TopoNet(&sim, nullptr, nullptr, spec) {}

TopoNet::TopoNet(ParallelRuntime& rt, const LpPartition& part,
                 const TopoSpec& spec)
    : TopoNet(nullptr, &rt, &part, spec) {}

TopoNet::TopoNet(Simulator* sim, ParallelRuntime* rt, const LpPartition* part,
                 const TopoSpec& spec)
    : sim_(sim), rt_(rt), spec_(spec), graph_(spec_) {
  assert((rt_ != nullptr) != (sim_ != nullptr));
  if (part != nullptr) {
    part_ = *part;
    assert(rt_ != nullptr && part_.shards == rt_->shards());
    assert(part_.node_lp.size() ==
           static_cast<std::size_t>(graph_.nodes()));
  }
  const Scenario& sc = spec_.scenario;
  const int total = graph_.nodes();
  assert(total >= 2);
  nodes_.reserve(static_cast<std::size_t>(total));
  for (int id = 0; id < total; ++id) {
    nodes_.push_back(std::make_unique<Node>(id));
  }

  // --- Pre-size every per-flow/per-link container (huge-N mode): the
  // expanded counts are known from the graph, so nothing regrows while
  // the graph and the flow population are built.
  links_.reserve(graph_.links().size());
  senders_.reserve(graph_.flows().size());
  sinks_.reserve(graph_.flows().size());
  sources_.reserve(graph_.flows().size());
  // --- Links, in expansion order. ---------------------------------------
  // Fork discipline: one sim.rng().fork() per member link with an
  // explicit queue, consumed here in expansion order; deterministic
  // disciplines receive (and discard) theirs so adding randomness to a
  // queue never re-keys unrelated flows.
  for (const MemberLink& m : graph_.links()) {
    const TopoLinkSpec& l = spec_.links[static_cast<std::size_t>(m.statement)];
    std::unique_ptr<Queue> q;
    if (l.queue.kind == PortQueueSpec::Kind::kDefault) {
      q = make_port_queue(l, sc, Random(0));
    } else {
      q = make_port_queue(l, sc, build_rng().fork());
    }
    // A link lives with its SENDING node's LP: its queue and transmitter
    // are driven by that side's events. When the receiver is elsewhere,
    // the delivery hops LPs through the runtime's channel.
    links_.push_back(std::make_unique<SimplexLink>(nsim(m.from), std::move(q),
                                                   l.rate_bps, m.delay));
    Node& to_node = *nodes_[static_cast<std::size_t>(m.to)];
    links_.back()->set_receiver(
        [&to_node](const Packet& p) { to_node.receive(p); });
    if (rt_ != nullptr && part_.lp_of(m.from) != part_.lp_of(m.to)) {
      rt_->register_cut_link(links_.back().get(), part_.lp_of(m.from),
                             part_.lp_of(m.to));
    }
  }
  assert(spec_.measure_link >= 0 &&
         spec_.measure_link < static_cast<int>(spec_.links.size()));
  const auto measured_idx =
      static_cast<std::size_t>(graph_.first_member(spec_.measure_link));
  measured_ = links_[measured_idx].get();
  measured_from_node_ = graph_.links()[measured_idx].from;

  // --- Routing: the graph's first-hop search from every node. ------------
  // Huge-N fast path: when the graph is strongly connected, a node with
  // exactly one out-link reaches every destination through it, so its
  // whole route table collapses to one default route — functionally
  // identical next hops (route tables never affect packet timing), and
  // the all-pairs O(N^2) search shrinks to one pass per multi-out-link hub
  // (the gateway, in a dumbbell). Graphs that are not strongly connected
  // keep the full per-destination table so unreachable destinations still
  // count routing_errors instead of being silently forwarded.
  const bool strongly_connected = graph_.strongly_connected();
  for (int src = 0; src < total; ++src) {
    Node& src_node = *nodes_[static_cast<std::size_t>(src)];
    const std::vector<int>& out = graph_.out_links(src);
    if (strongly_connected && out.size() == 1) {
      src_node.add_route(Node::kDefaultRoute,
                         links_[static_cast<std::size_t>(out[0])].get());
      continue;
    }
    if (out.empty()) continue;  // the search would install nothing
    const std::vector<int> hop = graph_.first_hops(src, true);
    src_node.reserve_routes(static_cast<std::size_t>(total));
    for (int dst = 0; dst < total; ++dst) {
      const int e = hop[static_cast<std::size_t>(dst)];
      if (e >= 0) {
        src_node.add_route(dst, links_[static_cast<std::size_t>(e)].get());
      }
    }
  }

  // --- Flows: one sender/sink/source triple per member flow. ------------
  for (const TopoFlowSpec& f : spec_.flows) {
    nodes_[static_cast<std::size_t>(spec_.node_id(f.dst, 0))]
        ->reserve_handlers(static_cast<std::size_t>(spec_.node_count(f.src)));
  }
  const TcpConfig tcp_cfg = make_tcp_config(sc);
  // Adds a TCP sender and counts its object's bytes (its dynamic type's).
  const auto add_tcp_sender = [this](auto sender) {
    tcp_agent_bytes_ += sizeof(*sender);
    senders_.push_back(std::move(sender));
  };
  for (const auto& [src, dst, statement] : graph_.flows()) {
    const TopoFlowSpec& f = spec_.flows[static_cast<std::size_t>(statement)];
    Node& src_node = *nodes_[static_cast<std::size_t>(src)];
    Node& dst_node = *nodes_[static_cast<std::size_t>(dst)];
    Simulator& ssim = nsim(src);
    Simulator& dsim = nsim(dst);
    const FlowId flow = static_cast<FlowId>(senders_.size());
    switch (f.transport) {
      case Transport::kUdp:
        senders_.push_back(std::make_unique<UdpSender>(
            ssim, src_node, flow, dst, sc.payload_bytes));
        sinks_.push_back(std::make_unique<UdpSink>(dsim, dst_node, flow, src));
        break;
      case Transport::kTahoe:
        add_tcp_sender(std::make_unique<TcpTahoe>(ssim, src_node, flow, dst,
                                                  tcp_cfg));
        break;
      case Transport::kReno:
        add_tcp_sender(std::make_unique<TcpReno>(ssim, src_node, flow, dst,
                                                 tcp_cfg));
        break;
      case Transport::kNewReno:
        add_tcp_sender(std::make_unique<TcpNewReno>(ssim, src_node, flow,
                                                    dst, tcp_cfg));
        break;
      case Transport::kVegas:
        add_tcp_sender(std::make_unique<TcpVegas>(ssim, src_node, flow, dst,
                                                  tcp_cfg, sc.vegas));
        break;
      case Transport::kSack:
        add_tcp_sender(std::make_unique<TcpSack>(ssim, src_node, flow, dst,
                                                 tcp_cfg));
        break;
    }
    if (f.transport != Transport::kUdp) {
      TcpSinkConfig sink_cfg;
      sink_cfg.delayed_ack = f.delayed_ack;
      sink_cfg.sack = f.transport == Transport::kSack;
      sinks_.push_back(
          std::make_unique<TcpSink>(dsim, dst_node, flow, src, sink_cfg));
      tcp_agent_bytes_ += sizeof(TcpSink);
    }
    sources_.push_back(std::make_unique<PoissonSource>(
        ssim, *senders_.back(), f.mean_interarrival, build_rng().fork()));
  }
}

std::size_t TopoNet::arena_bytes_reserved() const {
  std::size_t total = tcp_agent_bytes_;
  for (const TcpSender* s : tcp_senders()) total += s->send_ring_bytes();
  return total;
}

std::vector<const TcpSender*> TopoNet::tcp_senders() const {
  std::vector<const TcpSender*> out;
  out.reserve(senders_.size());
  for (const auto& a : senders_) {
    if (const auto* tcp = dynamic_cast<const TcpSender*>(a.get())) {
      out.push_back(tcp);
    }
  }
  return out;
}

void TopoNet::start_sources() {
  for (auto& s : sources_) s->start();
}

SimplexLink& TopoNet::link(int statement, int member) {
  return *links_.at(
      static_cast<std::size_t>(graph_.first_member(statement) + member));
}

void TopoNet::attach_trace(TraceSink& sink, const TopoTraceNames& names) {
  // A TraceSink is a single-writer ring, so a sharded build gives every
  // LP a private ring (same capacity; sites registered in the same order
  // so ids match the sequential run's) and finalize_trace() merges them
  // back into @p sink after the run. A sequential build writes straight
  // into @p sink, stamped from the build Simulator's tie clock.
  std::vector<TraceSink*> per_lp;
  if (rt_ != nullptr) {
    trace_merge_target_ = &sink;
    lp_trace_sinks_.reserve(static_cast<std::size_t>(part_.shards));
    for (int k = 0; k < part_.shards; ++k) {
      lp_trace_sinks_.push_back(std::make_unique<TraceSink>(sink.capacity()));
      lp_trace_sinks_.back()->set_stamp(rt_->sim(k).tie_clock(),
                                        static_cast<std::uint8_t>(k));
      per_lp.push_back(lp_trace_sinks_.back().get());
    }
  } else {
    sink.set_stamp(sim_->tie_clock(), 0);
    per_lp.push_back(&sink);
  }
  std::uint8_t queue_site = 0;
  std::uint8_t link_site = 0;
  std::uint8_t sink_site = 0;
  for (TraceSink* s : per_lp) {
    queue_site = s->register_site(names.queue_site);
    link_site = s->register_site(names.link_site);
    sink_site = s->register_site(names.sink_site);
  }
  const auto sink_of_node = [&](int node) -> TraceSink& {
    return *per_lp[static_cast<std::size_t>(
        rt_ != nullptr ? part_.lp_of(node) : 0)];
  };
  TraceSink& measured_sink = sink_of_node(measured_from_node_);
  // Member flows are in construction order (== senders_ order), so every
  // component's tap lands on the ring of the LP whose thread executes it.
  const std::vector<MemberFlow>& flows = graph_.flows();

  measured_->queue().set_trace(&measured_sink, queue_site);
  queue_trace_ = &measured_sink;
  queue_trace_site_ = queue_site;
  // A ring has one writer, its LP's thread. The measured link's deliveries
  // run on the receiver's LP (a cut link hands each packet over,
  // SimplexLink::deliver_remote), so its records go to that LP's ring.
  const MemberLink& measured_link = graph_.links()[static_cast<std::size_t>(
      graph_.first_member(spec_.measure_link))];
  measured_->set_trace(&sink_of_node(measured_link.to), link_site);

  for (std::size_t i = 0; i < sinks_.size(); ++i) {
    if (auto* tcp = dynamic_cast<TcpSink*>(sinks_[i].get())) {
      tcp->set_trace(&sink_of_node(flows[i].dst), sink_site);
    }
  }
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    sources_[i]->set_trace(&sink_of_node(flows[i].src),
                           static_cast<std::int32_t>(i));
  }
  for (std::size_t i = 0; i < senders_.size(); ++i) {
    auto* tcp = dynamic_cast<TcpSender*>(senders_[i].get());
    if (!tcp) continue;
    TraceSink& ssink = sink_of_node(flows[i].src);
    tracers_.push_back(std::make_unique<TransportTracer>(ssink, *tcp));
    tcp->set_observer(tracers_.back().get());
    if (auto* vegas = dynamic_cast<TcpVegas*>(tcp)) {
      vegas->set_vegas_trace(&ssink);
    }
  }
}

void TopoNet::finalize_trace() {
  if (queue_trace_ == nullptr) return;
  // Into the measured queue's own ring, before any merge: each cluster
  // becomes an aggregate of the LP that recorded its drops.
  std::vector<DropCluster> clusters =
      queue_trace_->drop_clusters(queue_trace_site_, kCongestionEventGap);
  if (!clusters.empty()) clusters.pop_back();  // no later drop closed it
  for (const DropCluster& c : clusters) {
    TraceRecord r;
    r.time = c.first;
    r.type = TraceEventType::kCongestionEvent;
    r.site = queue_trace_site_;
    r.value = static_cast<double>(c.flows);
    r.aux = c.last - c.first;
    r.seq = static_cast<std::int64_t>(c.drops);
    queue_trace_->emit_aggregate(r);
  }
  queue_trace_ = nullptr;
  if (trace_merge_target_ == nullptr) return;
  std::vector<const TraceSink*> parts;
  parts.reserve(lp_trace_sinks_.size());
  for (const auto& s : lp_trace_sinks_) parts.push_back(s.get());
  trace_merge_target_->merge_from(parts);
  trace_merge_target_ = nullptr;
}

void TopoNet::register_metrics(MetricsRegistry& registry,
                               const TopoMetricNames& names) const {
  const std::string qp = names.queue;
  const std::string lp = names.link;
  const QueueStats& qs = measured_->queue().stats();
  registry.add_counter(qp + ".arrivals", qs.arrivals);
  registry.add_counter(qp + ".drops", qs.drops);
  registry.add_counter(qp + ".forced_drops", qs.forced_drops);
  registry.add_counter(qp + ".early_drops", qs.early_drops);
  registry.add_counter(qp + ".departures", qs.departures);
  registry.add_counter(lp + ".delivered", measured_->delivered());
  registry.add_counter(lp + ".bytes_delivered", measured_->bytes_delivered());

  const TcpSenderStats tx = sender_totals();
  registry.add_counter("tcp.app_packets", tx.app_packets);
  registry.add_counter("tcp.data_pkts_sent", tx.data_pkts_sent);
  registry.add_counter("tcp.retransmits", tx.retransmits);
  registry.add_counter("tcp.timeouts", tx.timeouts);
  registry.add_counter("tcp.fast_retransmits", tx.fast_retransmits);
  registry.add_counter("tcp.dupacks", tx.dupacks);
  registry.add_counter("tcp.new_acks", tx.new_acks);
  registry.add_counter("tcp.rtt_samples", tx.rtt_samples);

  TcpSinkStats rx;
  for (const auto& s : sinks_) {
    if (const auto* tcp = dynamic_cast<const TcpSink*>(s.get())) {
      const TcpSinkStats& st = tcp->stats();
      rx.data_arrivals += st.data_arrivals;
      rx.unique_packets += st.unique_packets;
      rx.duplicate_packets += st.duplicate_packets;
      rx.out_of_order += st.out_of_order;
      rx.acks_sent += st.acks_sent;
      rx.dup_acks_sent += st.dup_acks_sent;
    }
  }
  registry.add_counter("sink.data_arrivals", rx.data_arrivals);
  registry.add_counter("sink.unique_packets", rx.unique_packets);
  registry.add_counter("sink.duplicate_packets", rx.duplicate_packets);
  registry.add_counter("sink.out_of_order", rx.out_of_order);
  registry.add_counter("sink.acks_sent", rx.acks_sent);
  registry.add_counter("sink.dup_acks_sent", rx.dup_acks_sent);
}

TcpSenderStats TopoNet::sender_totals() const {
  TcpSenderStats tx;
  for (const TcpSender* tcp : tcp_senders()) {
    const TcpSenderStats& st = tcp->stats();
    tx.app_packets += st.app_packets;
    tx.data_pkts_sent += st.data_pkts_sent;
    tx.retransmits += st.retransmits;
    tx.timeouts += st.timeouts;
    tx.fast_retransmits += st.fast_retransmits;
    tx.dupacks += st.dupacks;
    tx.new_acks += st.new_acks;
    tx.rtt_samples += st.rtt_samples;
    tx.ecn_echoes += st.ecn_echoes;
    tx.ecn_reductions += st.ecn_reductions;
  }
  return tx;
}

TcpSender* TopoNet::tcp_sender(int i) {
  return dynamic_cast<TcpSender*>(
      senders_.at(static_cast<std::size_t>(i)).get());
}

TcpSink* TopoNet::tcp_sink(int i) {
  return dynamic_cast<TcpSink*>(sinks_.at(static_cast<std::size_t>(i)).get());
}

UdpSink* TopoNet::udp_sink(int i) {
  return dynamic_cast<UdpSink*>(sinks_.at(static_cast<std::size_t>(i)).get());
}

std::uint64_t TopoNet::total_generated() const {
  std::uint64_t total = 0;
  for (const auto& s : sources_) total += s->generated();
  return total;
}

std::uint64_t TopoNet::total_delivered() const {
  std::uint64_t total = 0;
  for (const auto& s : sinks_) {
    if (const auto* tcp = dynamic_cast<const TcpSink*>(s.get())) {
      total += static_cast<std::uint64_t>(tcp->rcv_nxt());
    } else if (const auto* udp = dynamic_cast<const UdpSink*>(s.get())) {
      total += udp->packets_received();
    }
  }
  return total;
}

std::vector<double> TopoNet::per_flow_delivered() const {
  std::vector<double> out;
  out.reserve(sinks_.size());
  for (const auto& s : sinks_) {
    if (const auto* tcp = dynamic_cast<const TcpSink*>(s.get())) {
      out.push_back(static_cast<double>(tcp->rcv_nxt()));
    } else if (const auto* udp = dynamic_cast<const UdpSink*>(s.get())) {
      out.push_back(static_cast<double>(udp->packets_received()));
    }
  }
  return out;
}

RunningStats TopoNet::pooled_delay() const {
  RunningStats out;
  for (const auto& s : sinks_) {
    if (const auto* tcp = dynamic_cast<const TcpSink*>(s.get())) {
      out.merge(tcp->delay());
    } else if (const auto* udp = dynamic_cast<const UdpSink*>(s.get())) {
      out.merge(udp->delay());
    }
  }
  return out;
}

std::uint64_t TopoNet::routing_errors() const {
  std::uint64_t total = 0;
  for (const auto& n : nodes_) total += n->routing_errors();
  return total;
}

}  // namespace burst
