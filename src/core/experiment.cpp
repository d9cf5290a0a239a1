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

  // The periodic cwnd sampler schedules its own events on the build
  // Simulator, so it pins the run to the sequential engine. Event tracing
  // does not: each LP records into a private ring, merged at export
  // (TraceSink::merge_from). Beyond that the partitioner itself may
  // decline (no cut, zero lookahead) — either way part.shards is what the
  // run actually uses.
  int requested = options.lp_shards;
  if (!options.trace_clients.empty()) {
    requested = 1;
  }
  const LpPartition part = make_lp_partition(spec, requested);

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
  std::size_t ti = 0;
  for (int c : options.trace_clients) {
    if (c >= 0 && c < net->num_flows()) {
      if (TcpSender* s = net->tcp_sender(c)) {
        s->set_cwnd_trace(&result.cwnd_traces[ti]);
        if (options.cwnd_sample_period > 0.0) {
          Simulator& sim = *seq;  // trace_clients clamp to sequential above
          struct Sampler {
            static void arm(Simulator& sim, TcpSender* s, TraceSeries* t,
                            Time period, Time until) {
              if (sim.now() + period > until) return;
              sim.schedule(period, [&sim, s, t, period, until] {
                t->record(sim.now(), s->cwnd());
                arm(sim, s, t, period, until);
              });
            }
          };
          Sampler::arm(sim, s, &result.cwnd_traces[ti],
                       options.cwnd_sample_period, sc.duration);
        }
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
    result.lp_phases.reserve(rt->stats().size());
    int lp = 0;
    for (const LpStats& s : rt->stats()) {
      LpPhase ph;
      ph.lp = lp++;
      ph.events = s.events;
      ph.windows = s.windows;
      ph.msgs_in = s.msgs_in;
      ph.msgs_out = s.msgs_out;
      ph.merge_high_water = s.merge_high_water;
      ph.chan_overflows = s.chan_overflows;
      ph.chan_high_water = s.chan_high_water;
      ph.horizon_advance_mean =
          s.windows > 0 ? s.horizon_advance / static_cast<double>(s.windows)
                        : 0.0;
      ph.run_s = s.run_s;
      ph.wait_s = s.wait_s;
      result.lp_phases.push_back(ph);
    }
    const auto& wlog = rt->window_log();
    for (std::size_t k = 0; k < wlog.size(); ++k) {
      for (const LpWindowSample& w : wlog[k]) {
        LpWindowPhase wp;
        wp.lp = static_cast<int>(k);
        wp.gmin = w.gmin;
        wp.t0_s = w.t0_s;
        wp.pub_wait_s = w.pub_wait_s;
        wp.run_s = w.run_s;
        wp.flush_wait_s = w.flush_wait_s;
        wp.merge_s = w.merge_s;
        wp.events = w.events;
        wp.staged = w.staged;
        result.lp_windows.push_back(wp);
      }
    }
  } else {
    seq->run(sc.duration);
    result.sim_events = seq->events_run();
    result.peak_pending = seq->scheduler().peak_pending();
    scheduled = seq->scheduler().scheduled_count();
  }
  result.sim_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  if (result.sim_wall_s > 0.0) {
    result.events_per_sec =
        static_cast<double>(result.sim_events) / result.sim_wall_s;
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

  for (int i = 0; i < net->num_flows(); ++i) {
    if (const TcpSender* s = net->tcp_sender(i)) {
      const TcpSenderStats& st = s->stats();
      result.timeouts += st.timeouts;
      result.fast_retransmits += st.fast_retransmits;
      result.dupacks += st.dupacks;
      result.retransmits += st.retransmits;
      result.data_pkts_sent += st.data_pkts_sent;
    }
  }
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
    // timing and stay in lp_phases / the profile table, never here (the
    // registry's determinism contract backs the result cache).
    registry.add_counter("parallel.shards",
                         static_cast<std::uint64_t>(part.shards));
    registry.add_gauge("parallel.lookahead", part.lookahead);
    registry.add_counter("parallel.windows", rt->stats().front().windows);
    for (const LpPhase& ph : result.lp_phases) {
      const std::string prefix = "parallel.lp" + std::to_string(ph.lp);
      registry.add_counter(prefix + ".events", ph.events);
      registry.add_counter(prefix + ".msgs_in", ph.msgs_in);
      registry.add_counter(prefix + ".msgs_out", ph.msgs_out);
      registry.add_counter(prefix + ".merge_high_water",
                           ph.merge_high_water);
      registry.add_gauge(prefix + ".horizon_advance_mean",
                         ph.horizon_advance_mean);
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
