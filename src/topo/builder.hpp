// TopoNet: builds the live Node/SimplexLink/queue graph described by a
// TopoSpec. Every topology — the paper dumbbell (make_dumbbell_spec), the
// parking lot (make_tandem_spec) and any parsed `.topo` file — is built
// here.
//
// Determinism contract (what keeps a TopoNet-built dumbbell bit-identical
// to the historical hard-coded one the identity pins were taken on):
//   * Nodes are created in id order 0..total_nodes()-1.
//   * Links and flows are TopoGraph's member links and member flows,
//     built in its expansion order: statements in declaration order, a
//     group endpoint member by member within the statement.
//   * RNG fork discipline: every expanded link with an EXPLICIT queue
//     spec consumes exactly one sim.rng().fork() (in expansion order),
//     whether or not the discipline is randomized — then every flow's
//     Poisson source consumes one fork, in flow order. Default-queue
//     links fork nothing.
//   * Routing is static: TopoGraph's first-hop search from each node,
//     out-links in expansion order, so the first declared shortest path
//     wins. Route-table layout never affects packet timing, only next
//     hops.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/app/poisson_source.hpp"
#include "src/net/node.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/transport_trace.hpp"
#include "src/sim/parallel/runtime.hpp"
#include "src/sim/simulator.hpp"
#include "src/topo/partition.hpp"
#include "src/topo/spec.hpp"
#include "src/transport/tcp_sender.hpp"
#include "src/transport/tcp_sink.hpp"
#include "src/transport/udp.hpp"

namespace burst {

/// Trace-site labels used by TopoNet::attach_trace. run_experiment passes
/// the paper dumbbell's historical names so its trace files stay stable.
struct TopoTraceNames {
  const char* queue_site = "queue:measured";
  const char* link_site = "link:measured";
  const char* sink_site = "sink:measured";
};

/// Metric-name prefixes for the measured queue/link counters.
struct TopoMetricNames {
  const char* queue = "queue.measured";
  const char* link = "link.measured";
};

class TopoNet {
 public:
  TopoNet(Simulator& sim, const TopoSpec& spec);

  /// Sharded build for the conservative parallel engine: every component
  /// lands on the Simulator of the LP that @p part assigns its node to,
  /// and links whose endpoints straddle the cut register with @p rt.
  /// Component RNG forks all come from rt.build_rng() in the sequential
  /// build's global order, so every queue discipline and Poisson source
  /// sees a value-identical stream regardless of shard placement. @p part
  /// must have shards >= 2 and must outlive only this constructor (it is
  /// copied).
  TopoNet(ParallelRuntime& rt, const LpPartition& part, const TopoSpec& spec);

  /// Starts every flow's traffic source.
  void start_sources();

  /// Expanded link for member @p member of link statement @p statement.
  SimplexLink& link(int statement, int member = 0);
  /// The spec's measured link (its queue is the bottleneck under study).
  SimplexLink& measured_link() { return *measured_; }
  const SimplexLink& measured_link() const { return *measured_; }
  Queue& measured_queue() { return measured_->queue(); }

  /// Wires the measured queue/link, every TCP sink, every source, a
  /// TransportTracer per TCP sender and a Vegas Diff tap where applicable
  /// into @p sink. Call at most once; @p sink must outlive the run. In a
  /// sharded build each component taps a private per-LP ring instead.
  /// Call finalize_trace() after the run.
  void attach_trace(TraceSink& sink, const TopoTraceNames& names = {});

  /// Completes the trace given to attach_trace(). It writes each drop
  /// cluster of the measured queue's data drops (10 ms gap,
  /// TraceSink::drop_clusters) that a later drop closed as a
  /// kCongestionEvent aggregate: time = first drop, value = flows hit,
  /// aux = duration, seq = drops. The cluster still open at the end is
  /// not written. A sharded build then merges its per-LP rings into the
  /// sink (TraceSink::merge_from). Call at most once, after the run
  /// completes.
  void finalize_trace();

  /// The per-LP trace rings of a sharded traced build (empty otherwise);
  /// exposed for the runner's telemetry counters.
  const std::vector<std::unique_ptr<TraceSink>>& lp_trace_sinks() const {
    return lp_trace_sinks_;
  }

  /// Registers measured-queue/link counters (under @p names) plus the
  /// aggregate tcp.* (sender_totals) / sink.* counters. Values are
  /// captured at the call.
  void register_metrics(MetricsRegistry& registry,
                        const TopoMetricNames& names = {}) const;

  /// Every TCP sender's counters, summed (UDP flows contribute nothing).
  TcpSenderStats sender_totals() const;

  int num_flows() const { return static_cast<int>(senders_.size()); }

  Agent& sender(int i) { return *senders_.at(static_cast<std::size_t>(i)); }
  TcpSender* tcp_sender(int i);
  TcpSink* tcp_sink(int i);
  UdpSink* udp_sink(int i);
  PoissonSource& source(int i) {
    return *sources_.at(static_cast<std::size_t>(i));
  }

  std::uint64_t total_generated() const;
  std::uint64_t total_delivered() const;
  std::vector<double> per_flow_delivered() const;
  RunningStats pooled_delay() const;
  std::uint64_t routing_errors() const;

  const TopoSpec& spec() const { return spec_; }

  /// The TCP senders, in flow order (a UDP flow has none).
  std::vector<const TcpSender*> tcp_senders() const;
  /// Bytes the TCP agents hold: every sender and sink object plus each
  /// sender's send-time ring, which grows with the window it has sent.
  /// The huge-N per-flow memory budget reads it after a run.
  std::size_t arena_bytes_reserved() const;

  /// The Simulator owning the measured link's sending node — the clock
  /// that measured-queue tap callbacks must read. Sequential builds
  /// return the build Simulator.
  Simulator& measured_sim() { return nsim(measured_from_node_); }

  /// LP hosting the measured link (0 for sequential builds).
  int measured_lp() const { return part_.lp_of(measured_from_node_); }

 private:
  TopoNet(Simulator* sim, ParallelRuntime* rt, const LpPartition* part,
          const TopoSpec& spec);

  /// The Simulator hosting @p node under the partition (the build
  /// Simulator when sequential).
  Simulator& nsim(int node) {
    return rt_ != nullptr ? rt_->sim(part_.lp_of(node)) : *sim_;
  }
  /// The single generator every build-time fork draws from.
  Random& build_rng() {
    return rt_ != nullptr ? rt_->build_rng() : sim_->rng();
  }

  Simulator* sim_;             // null in a sharded build
  ParallelRuntime* rt_;        // null in a sequential build
  LpPartition part_;           // shards == 1 when sequential
  TopoSpec spec_;
  TopoGraph graph_;            // spec_ expanded
  std::vector<std::unique_ptr<Node>> nodes_;
  // Parallel to graph_.links().
  std::vector<std::unique_ptr<SimplexLink>> links_;
  SimplexLink* measured_ = nullptr;
  int measured_from_node_ = 0;
  std::vector<std::unique_ptr<Agent>> senders_;
  std::vector<std::unique_ptr<Agent>> sinks_;
  std::vector<std::unique_ptr<PoissonSource>> sources_;
  std::size_t tcp_agent_bytes_ = 0;  // sizeof every TCP sender and sink

  std::vector<std::unique_ptr<TransportTracer>> tracers_;
  /// The ring the measured queue writes to and its site there; null until
  /// attach_trace(), and again once finalize_trace() has clustered it.
  TraceSink* queue_trace_ = nullptr;
  std::uint8_t queue_trace_site_ = 0;
  /// Sharded traced builds only: one ring per LP, merged by
  /// finalize_trace() into trace_merge_target_ (the attach_trace sink).
  std::vector<std::unique_ptr<TraceSink>> lp_trace_sinks_;
  TraceSink* trace_merge_target_ = nullptr;
};

}  // namespace burst
