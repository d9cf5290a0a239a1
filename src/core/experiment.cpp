#include "src/core/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>

#include "src/obs/flight_recorder.hpp"
#include "src/sim/parallel/runtime.hpp"
#include "src/stats/binned_counter.hpp"
#include "src/stats/fairness.hpp"
#include "src/topo/builder.hpp"
#include "src/topo/partition.hpp"
#include "src/topo/spec.hpp"

namespace burst {

namespace {

/// @p changes (every cwnd write) with the periodic grid t_1 = period,
/// t_{k+1} = t_k + period (while <= until) interleaved. A grid point holds
/// the last value at or before its time, and a change at the same instant
/// goes first: the times, values and order an event-scheduled sampler
/// produced, without its events.
TraceSeries with_sample_grid(const TraceSeries& changes, Time period,
                             Time until) {
  TraceSeries out(changes.name());
  const auto& pts = changes.points();
  std::size_t i = 0;
  for (Time t = period; t <= until; t += period) {
    for (; i < pts.size() && pts[i].first <= t; ++i) {
      out.record(pts[i].first, pts[i].second);
    }
    out.record(t, out.points().back().second);
  }
  for (; i < pts.size(); ++i) out.record(pts[i].first, pts[i].second);
  return out;
}

}  // namespace

ExperimentResult run_experiment(const Scenario& scenario,
                                const ExperimentOptions& options) {
  return run_experiment(make_dumbbell_spec(scenario), options);
}

ExperimentResult run_experiment(const TopoSpec& spec,
                                const ExperimentOptions& options) {
  const Scenario& sc = spec.scenario;
  // The paper dumbbell keeps its historical trace-site and metric names at
  // every shard count: the identity pins, the byte-identical lp>1 trace
  // merge and every stored result use them.
  const bool dumbbell = is_canonical_dumbbell(spec);
  const TopoTraceNames trace_names =
      dumbbell ? TopoTraceNames{"queue:gateway", "link:bottleneck",
                                "sink:server"}
               : TopoTraceNames{};
  const TopoMetricNames metric_names =
      dumbbell ? TopoMetricNames{"queue.gateway", "link.bottleneck"}
               : TopoMetricNames{};

  // The partitioner may decline the request (no cut, zero lookahead):
  // part.shards is what the run actually uses.
  const LpPartition part = make_lp_partition(spec, options.lp_shards);

  std::unique_ptr<Simulator> seq;
  std::unique_ptr<ParallelRuntime> rt;
  std::unique_ptr<TopoNet> net;
  if (part.shards > 1) {
    rt = std::make_unique<ParallelRuntime>(part.shards, part.lookahead,
                                           sc.seed);
    net = std::make_unique<TopoNet>(*rt, part, spec);
  } else {
    seq = std::make_unique<Simulator>(sc.seed);
    net = std::make_unique<TopoNet>(*seq, spec);
  }
  if (options.trace != nullptr) {
    // Traced parallel runs also log the per-window runtime timeline for
    // the `.runtime.perfetto` export (cheap: a few stores per window).
    if (rt != nullptr) rt->enable_window_log();
    net->attach_trace(*options.trace, trace_names);
  }
  if (options.flight != nullptr) {
    options.flight->observe_queue(&net->measured_queue());
    // The cwnd histogram needs the arena of the measured link's LP; a
    // sequential build has exactly one. Parallel runs skip it — scanning
    // per-flow state owned by other LP threads would race.
    if (rt == nullptr) options.flight->observe_arena(&net->flow_arena());
    options.flight->set_lp(net->measured_lp());
    options.flight->arm(net->measured_sim(), sc.duration);
  }

  // Tap data-packet arrivals at the measured queue into RTT-wide bins,
  // and the pre-enqueue occupancy each one sees into a metrics histogram
  // (PASTA: under Poisson arrivals this is the time-average occupancy).
  MetricsRegistry registry;
  Histogram& qlen_hist = registry.histogram(
      std::string(metric_names.queue) + ".len_at_arrival",
      {0, 1, 2, 4, 8, 16, 32, 64, 128});
  BinnedCounter arrivals(sc.rtt_prop(), sc.warmup);
  Queue& measured = net->measured_queue();
  // The tap runs on whichever LP drives the measured link, so it must
  // read that LP's clock (== the build Simulator when sequential).
  Simulator& msim = net->measured_sim();
  measured.taps().add_arrival_listener([&](const Packet& p, Time) {
    if (p.type != PacketType::kData) return;
    arrivals.record(msim.now());
    qlen_hist.add(static_cast<double>(measured.len()));
  });

  ExperimentResult result;
  result.scenario = sc;
  result.lp_shards = part.shards;
  result.cwnd_traces.reserve(options.trace_clients.size());
  for (int c : options.trace_clients) {
    result.cwnd_traces.emplace_back("client " + std::to_string(c + 1));
  }
  // Each traced sender records every set_cwnd write into its own series
  // from its own LP; nothing is scheduled, so tracing shards like event
  // tracing does and leaves the event sequence untouched.
  std::size_t ti = 0;
  for (int c : options.trace_clients) {
    if (c >= 0 && c < net->num_flows()) {
      if (TcpSender* s = net->tcp_sender(c)) {
        s->set_cwnd_trace(&result.cwnd_traces[ti]);
      }
    }
    ++ti;
  }

  net->start_sources();
  const auto wall0 = std::chrono::steady_clock::now();
  std::uint64_t scheduled = 0;
  if (rt != nullptr) {
    rt->run(sc.duration);
    result.sim_events = rt->total_events();
    result.peak_pending = rt->max_peak_pending();
    scheduled = rt->total_scheduled();
    result.lp_stats = rt->stats();
    result.lp_windows = rt->window_log();
  } else {
    seq->run(sc.duration);
    result.sim_events = seq->events_run();
    result.peak_pending = seq->scheduler().peak_pending();
    scheduled = seq->scheduler().scheduled_count();
  }
  result.sim_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  if (options.cwnd_sample_period > 0.0) {
    // An attached series starts with its attach-time point; an empty one
    // belongs to a client with no TCP sender and stays empty.
    for (TraceSeries& t : result.cwnd_traces) {
      if (!t.empty()) {
        t = with_sample_grid(t, options.cwnd_sample_period, sc.duration);
      }
    }
  }

  const RunningStats bin_stats = arrivals.stats_until(sc.duration);
  result.cov = bin_stats.cov();
  result.mean_per_bin = bin_stats.mean();
  // Analytic reference: the c.o.v. of one Poisson stream at the pooled
  // rate of every flow. Summed as members * (1/mean) so that a single flow
  // statement gives the dumbbell's N * (1/mean) * rtt bit for bit.
  double rate_sum = 0.0;
  for (const TopoFlowSpec& f : spec.flows) {
    rate_sum += static_cast<double>(spec.node_count(f.src)) *
                (1.0 / f.mean_interarrival);
  }
  result.poisson_cov = poisson_aggregate_cov(1, rate_sum, sc.rtt_prop());

  result.app_generated = net->total_generated();
  result.delivered = net->total_delivered();
  const QueueStats& qs = measured.stats();
  result.gw_arrivals = qs.arrivals;
  result.gw_drops = qs.drops;
  result.loss_pct = 100.0 * qs.loss_fraction();

  // The same totals register_metrics files as tcp.*.
  const TcpSenderStats tx = net->sender_totals();
  result.timeouts = tx.timeouts;
  result.fast_retransmits = tx.fast_retransmits;
  result.dupacks = tx.dupacks;
  result.retransmits = tx.retransmits;
  result.data_pkts_sent = tx.data_pkts_sent;
  // Fig 13 ratio; see the convention note on ExperimentResult. A run with
  // timeouts but zero dupacks clamps the denominator to 1 so the ratio
  // degrades to the raw timeout count instead of silently reading 0.
  if (result.timeouts > 0 || result.dupacks > 0) {
    result.timeout_dupack_ratio =
        static_cast<double>(result.timeouts) /
        static_cast<double>(std::max<std::uint64_t>(result.dupacks, 1));
  }
  result.fairness = jain_fairness(net->per_flow_delivered());
  result.delay = net->pooled_delay();
  result.routing_errors = net->routing_errors();

  // Component metrics. Scheduler counters are deterministic (instrumented
  // runs execute the same event sequence); wall-clock values stay out so
  // the snapshot is reproducible and cacheable.
  net->register_metrics(registry, metric_names);
  registry.add_counter("sched.events", result.sim_events);
  registry.add_counter("sched.peak_pending", result.peak_pending);
  registry.add_counter("sched.scheduled", scheduled);
  if (rt != nullptr) {
    // Parallel-runtime telemetry — deterministic subset only. Window
    // count, horizon advance, per-LP event/message splits and the merge
    // high-water mark are pure functions of event timestamps; wall-clock
    // splits (run_s/wait_s) and ring-overflow placement depend on thread
    // timing and stay in lp_stats / the profile table, never here (the
    // registry's determinism contract backs the result cache).
    registry.add_counter("parallel.shards",
                         static_cast<std::uint64_t>(part.shards));
    registry.add_gauge("parallel.lookahead", part.lookahead);
    registry.add_counter("parallel.windows", rt->stats().front().windows);
    for (std::size_t lp = 0; lp < result.lp_stats.size(); ++lp) {
      const LpStats& st = result.lp_stats[lp];
      const std::string prefix = "parallel.lp" + std::to_string(lp);
      registry.add_counter(prefix + ".events", st.events);
      registry.add_counter(prefix + ".msgs_in", st.msgs_in);
      registry.add_counter(prefix + ".msgs_out", st.msgs_out);
      registry.add_counter(prefix + ".merge_high_water",
                           st.merge_high_water);
      registry.add_gauge(prefix + ".horizon_advance_mean",
                         horizon_advance_mean(st));
    }
  }
  result.metrics = registry.snapshot();
  // Merge the per-LP trace rings into the caller's sink last, after every
  // reader above: the sequential engine's final ring state includes only
  // what ran, and the merged view must mirror it exactly.
  net->finalize_trace();
  return result;
}

}  // namespace burst
