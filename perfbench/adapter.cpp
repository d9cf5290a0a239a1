#include "adapter.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <ostream>
#include <streambuf>
#include <unordered_set>

#include "src/obs/profile.hpp"
#include "src/obs/trace.hpp"
#include "src/run/campaign.hpp"
#include "src/run/result_store.hpp"
#include "src/run/scenario_key.hpp"
#include "src/sim/parallel/runtime.hpp"
#include "src/sim/simulator.hpp"
#include "src/stats/binned_counter.hpp"
#include "src/topo/builder.hpp"
#include "src/topo/parser.hpp"
#include "src/topo/partition.hpp"
#include "src/topo/spec.hpp"

namespace perfbench {

struct CampaignSweeps {
  std::vector<burst::CampaignSweep> sweeps;
};

namespace {

ProfileSplit split_of(const std::array<double, burst::kProfilePhases>& s) {
  using burst::ProfilePhase;
  ProfileSplit p;
  p.dispatch_s = s[static_cast<std::size_t>(ProfilePhase::kDispatch)];
  p.transport_s = s[static_cast<std::size_t>(ProfilePhase::kTransport)];
  p.queue_s = s[static_cast<std::size_t>(ProfilePhase::kQueue)];
  p.other_s = s[static_cast<std::size_t>(ProfilePhase::kOther)];
  return p;
}

ProfileSplit split_of(const burst::Profiler& prof) {
  std::array<double, burst::kProfilePhases> s{};
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i] = prof.seconds(static_cast<burst::ProfilePhase>(i));
  }
  return split_of(s);
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return fnv1a(&v, sizeof v, h);
}

/// An ostream target appending to a string that keeps its capacity, so
/// repeated in-memory exports stand in for writing a file: they pay the
/// formatting, not first-touch page faults on ~100 MB of fresh memory.
class StringSink : public std::streambuf {
 public:
  explicit StringSink(std::string* s) : s_(s) {
    s_->clear();
    setp(buf_, buf_ + sizeof buf_);
  }

 protected:
  int_type overflow(int_type c) override {
    sync();
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }
  int sync() override {
    s_->append(pbase(), static_cast<std::size_t>(pptr() - pbase()));
    setp(buf_, buf_ + sizeof buf_);
    return 0;
  }

 private:
  std::string* s_;
  char buf_[1 << 16];
};

/// Runs @p write on a stream into @p out; returns the seconds it took.
template <typename Write>
double export_into(std::string* out, Write write) {
  const double t = now_s();
  StringSink buf(out);
  std::ostream os(&buf);
  write(os);
  buf.pubsync();
  return now_s() - t;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(const void* bytes, std::size_t n, std::uint64_t seed) {
  return burst::fnv1a64(
      std::string_view(static_cast<const char*>(bytes), n), seed);
}

bool run_single(const SingleInput& in, SingleTimes* times, SingleOutputs* out,
                std::string* error) {
  using namespace burst;
  *times = {};
  *out = {};

  // ---- topo: spec, partition, build. ----------------------------------
  const double t_setup = now_s();
  TopoSpec spec;
  if (in.topo_text.empty()) {
    Scenario sc = Scenario::paper_default();
    for (const auto& [field, value] : in.fields) {
      if (!apply_scenario_field(&sc, field, value, error)) return false;
    }
    spec = make_dumbbell_spec(sc);
  } else {
    TopoError err;
    std::optional<TopoSpec> parsed =
        parse_topo(in.topo_text, in.name, &err, in.fields);
    if (!parsed) {
      *error = err.render(in.name);
      return false;
    }
    spec = std::move(*parsed);
  }
  double t = now_s();
  times->parse_s = t - t_setup;

  const LpPartition part = make_lp_partition(spec, in.lp_shards);
  times->partition_s = now_s() - t;

  t = now_s();
  std::unique_ptr<Simulator> seq;
  std::unique_ptr<ParallelRuntime> rt;
  std::unique_ptr<TopoNet> net;
  if (part.shards > 1) {
    rt = std::make_unique<ParallelRuntime>(part.shards, part.lookahead,
                                           spec.scenario.seed);
    net = std::make_unique<TopoNet>(*rt, part, spec);
  } else {
    seq = std::make_unique<Simulator>(spec.scenario.seed);
    net = std::make_unique<TopoNet>(*seq, spec);
  }
  net->start_sources();
  times->build_s = now_s() - t;

  // ---- obs: trace sink (per-LP rings live inside the TopoNet). --------
  std::unique_ptr<TraceSink> sink;
  if (in.trace) {
    t = now_s();
    sink = std::make_unique<TraceSink>();
    // The canonical dumbbell keeps its historical site names, so the
    // export matches every other traced run of the same scenario.
    if (is_canonical_dumbbell(spec)) {
      net->attach_trace(*sink, {"queue:gateway", "link:bottleneck",
                                "sink:server"});
    } else {
      net->attach_trace(*sink);
    }
    times->attach_s = now_s() - t;
  }

  // ---- stats: c.o.v. of per-RTT data arrivals at the measured queue. --
  const Scenario& sc = spec.scenario;
  BinnedCounter arrivals(sc.rtt_prop(), sc.warmup);
  Simulator& msim = net->measured_sim();
  net->measured_queue().taps().add_arrival_listener(
      [&arrivals, &msim](const Packet& p, Time) {
        if (p.type == PacketType::kData) arrivals.record(msim.now());
      });
  const double t_run = now_s();
  times->setup_s = t_run - t_setup;
  if (in.setup_only) return true;

  // ---- sim: the run call. ----------------------------------------------
  Profiler prof;
  Profiler* prev = in.profile ? Profiler::install(&prof) : nullptr;
  if (rt != nullptr) {
    rt->run(sc.duration);
  } else {
    seq->run(sc.duration);
  }
  times->run_s = now_s() - t_run;
  if (in.profile) {
    Profiler::install(prev);
    out->profile = split_of(prof);
  }

  // ---- results. ---------------------------------------------------------
  out->horizon_s = sc.duration;
  out->lp_shards = part.shards;
  if (rt != nullptr) {
    out->events = rt->total_events();
    out->peak_pending = rt->max_peak_pending();
    for (const LpStats& s : rt->stats()) {
      out->lp_run_s += s.run_s;
      out->lp_wait_s += s.wait_s;
      out->lp_msgs += s.msgs_out;
      out->lp_chan_overflows += s.chan_overflows;
    }
    out->lp_windows = rt->stats().front().windows;
  } else {
    out->events = seq->events_run();
    out->peak_pending = seq->scheduler().peak_pending();
  }
  out->cov = arrivals.stats_until(sc.duration).cov();
  out->delivered = net->total_delivered();
  const QueueStats& qs = net->measured_queue().stats();
  out->gw_arrivals = qs.arrivals;
  out->gw_drops = qs.drops;
  out->routing_errors = net->routing_errors();
  out->flows = net->num_flows();
  for (int i = 0; i < net->num_flows(); ++i) {
    if (const TcpSender* s = net->tcp_sender(i)) {
      out->timeouts += s->stats().timeouts;
      out->retransmits += s->stats().retransmits;
    }
  }
  if (out->flows > 0) {
    out->arena_bytes_per_flow =
        static_cast<double>(net->arena_bytes_reserved()) / out->flows;
  }

  // ---- obs: merge + exports, into memory. ------------------------------
  if (sink) {
    t = now_s();
    net->finalize_trace();
    times->merge_s = now_s() - t;

    static std::string jsonl, perfetto;  // reused across runs
    times->jsonl_s = export_into(
        &jsonl, [&](std::ostream& os) { sink->write_jsonl(os); });
    times->perfetto_s = export_into(
        &perfetto, [&](std::ostream& os) { sink->write_chrome_trace(os); });
    times->wall_s = now_s() - t_run;

    const std::string_view text = jsonl;
    out->jsonl_hash = fnv1a(text.data(), text.size());
    for (std::size_t pos = 0; pos < text.size();) {
      const std::size_t end = std::min(text.find('\n', pos), text.size());
      out->jsonl_lines_hash += fnv1a(text.data() + pos, end - pos);
      pos = end + 1;
    }
    out->export_bytes = text.size() + perfetto.size();
    out->trace_records = sink->size();
    out->trace_dropped = sink->dropped();
    for (const auto& lp_sink : net->lp_trace_sinks()) {
      out->trace_dropped += lp_sink->dropped();
    }
  } else {
    times->wall_s = now_s() - t_run;
  }
  return true;
}

CampaignPlan plan_campaign(const std::string& store_dir, std::uint64_t seed,
                           CampaignSetupTimes* times) {
  using namespace burst;
  const double t_setup = now_s();
  double t = t_setup;
  { ResultStore store(store_dir); }
  times->store_open_s = now_s() - t;

  t = now_s();
  Scenario base = Scenario::paper_default();
  base.seed = seed;
  auto sweeps = std::make_shared<CampaignSweeps>();
  sweeps->sweeps = paper_figure_campaign(base);
  CampaignPlan plan;
  std::unordered_set<ScenarioKey, ScenarioKeyHash> keys;
  for (const CampaignSweep& sw : sweeps->sweeps) {
    for (const SweepConfig& cfg : sw.configs) {
      for (const int n : sw.client_counts) {
        Scenario sc = sw.base;
        sc.num_clients = n;
        cfg.apply(sc);
        sc.seed = campaign_point_seed(sw.base, cfg.name, n);
        keys.insert(scenario_key(sc));
        ++plan.planned;
      }
    }
  }
  times->plan_s = now_s() - t;
  times->setup_s = now_s() - t_setup;
  plan.unique = keys.size();
  plan.sim_seconds = base.duration;
  plan.sweeps = std::move(sweeps);
  return plan;
}

CampaignRun run_campaign(const CampaignPlan& plan, const std::string& store_dir,
                         unsigned threads, bool profile) {
  using namespace burst;
  CampaignOptions opts;
  opts.cache_dir = store_dir;
  opts.threads = threads;
  opts.profile = profile;
  const double t = now_s();
  const CampaignOutput co = burst::run_campaign(plan.sweeps->sweeps, opts);
  CampaignRun r;
  r.wall_s = now_s() - t;

  r.cache_hits = co.stats.cache_hits;
  r.simulated = co.stats.simulated;
  r.events = co.stats.sim_events;
  r.peak_pending = co.stats.peak_pending_max;
  r.sim_wall_s = co.stats.sim_wall_s;
  if (profile) r.profile = split_of(co.stats.phase_seconds);

  std::unordered_set<ScenarioKey, ScenarioKeyHash> seen;
  std::uint64_t h = 14695981039346656037ULL;
  double cov_sum = 0.0;
  for (const auto& [name, series] : co.sweeps) {
    for (const SweepSeries& s : series) {
      for (const SweepPoint& p : s.points) {
        const ExperimentResult& e = p.result;
        if (!seen.insert(scenario_key(e.scenario)).second) continue;
        std::uint64_t cov_bits = 0;
        std::memcpy(&cov_bits, &e.cov, sizeof cov_bits);
        for (const std::uint64_t v :
             {e.sim_events, e.delivered, e.gw_drops, e.timeouts, cov_bits}) {
          h = mix(h, v);
        }
        if (e.sim_wall_s > 0.0) r.task_sim_wall_s.push_back(e.sim_wall_s);
        r.delivered += e.delivered;
        r.gw_arrivals += e.gw_arrivals;
        r.gw_drops += e.gw_drops;
        r.timeouts += e.timeouts;
        r.retransmits += e.retransmits;
        r.routing_errors += e.routing_errors;
        cov_sum += e.cov;
      }
    }
  }
  r.unique = seen.size();
  r.digest = h;
  if (r.unique > 0) r.mean_cov = cov_sum / static_cast<double>(r.unique);
  return r;
}

double load_store(const std::string& store_dir, std::size_t* entries) {
  const double t = now_s();
  burst::ResultStore store(store_dir);
  const double s = now_s() - t;
  *entries = store.size();
  return s;
}

}  // namespace perfbench
