#include "src/run/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "src/core/report.hpp"
#include "src/obs/format.hpp"
#include "src/run/executor.hpp"
#include "src/run/result_store.hpp"

// Generated by src/version.cmake on every build: BURST_VERSION_STRING.
#include "burst_version.hpp"

namespace burst {
namespace {

/// @p s as a JSON string literal.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  obs_format::append_escaped(out, s);
  out += '"';
  return out;
}

}  // namespace

std::uint64_t campaign_point_seed(const Scenario& base,
                                  const std::string& config_name,
                                  int num_clients) {
  return derive_seed(base.seed, config_name, num_clients);
}

ExperimentOptions campaign_run_options(const CampaignOptions& opts) {
  // Every point of a parallel campaign runs (and is keyed) with the same
  // shard count; the salted key keeps lp>1 results out of sequential
  // caches and vice versa.
  ExperimentOptions eopts;
  eopts.lp_shards = opts.lp_shards;
  return eopts;
}

std::vector<ExperimentResult> run_campaign_points(
    const std::vector<CampaignPoint>& points, const CampaignOptions& opts,
    CampaignStats* stats) {
  CampaignStats& st = *stats;
  const ExperimentOptions eopts = campaign_run_options(opts);

  // ---- Dedup: one simulation per key, represented by its first point. --
  std::vector<std::size_t> unique_points;
  std::vector<std::size_t> point_to_unique(points.size());
  std::unordered_map<ScenarioKey, std::size_t, ScenarioKeyHash> by_key;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto [it, inserted] =
        by_key.emplace(points[i].key, unique_points.size());
    if (inserted) unique_points.push_back(i);
    point_to_unique[i] = it->second;
  }
  st.planned = points.size();
  st.unique = unique_points.size();
  const auto spec_of = [&](std::size_t u) -> const TopoSpec& {
    return points[unique_points[u]].spec;
  };
  const auto key_of = [&](std::size_t u) -> const ScenarioKey& {
    return points[unique_points[u]].key;
  };

  // ---- Probe the cache. -----------------------------------------------
  std::unique_ptr<ResultStore> store;
  if (!opts.cache_dir.empty()) {
    store = std::make_unique<ResultStore>(opts.cache_dir);
    st.store_skipped = store->skipped_entries();
  }
  std::vector<ExperimentResult> results(unique_points.size());
  std::vector<std::size_t> misses;
  for (std::size_t u = 0; u < unique_points.size(); ++u) {
    if (store) {
      if (auto cached = store->get(key_of(u))) {
        results[u] = std::move(*cached);
        results[u].scenario = spec_of(u).scenario;
        ++st.cache_hits;
        continue;
      }
    }
    misses.push_back(u);
  }
  if (opts.log) {
    *opts.log << "campaign: " << st.planned << " points, " << st.unique
              << " unique scenarios, " << st.cache_hits << " cache hits, "
              << misses.size() << " to simulate" << std::endl;
  }

  // ---- Simulate the misses. -------------------------------------------
  if (!misses.empty()) {
    unsigned threads = opts.threads;
    if (threads == 0) {
      threads = static_cast<unsigned>(
          std::min<std::size_t>(std::max(1u, std::thread::hardware_concurrency()),
                                misses.size()));
    }
    // Live counters fed by completing tasks; the progress callback reads
    // them to report a running events/s (simulated events over elapsed
    // wall), which tracks throughput even when task sizes are skewed.
    std::atomic<std::uint64_t> events_done{0};
    std::atomic<std::size_t> simulated{0};
    std::atomic<std::size_t> farmed{0};
    std::mutex profile_mu;
    Profiler profile_total;
    std::vector<LpStats> lp_totals;
    // Log at most ~20 progress lines regardless of batch size, and flush
    // each one: on a pipe or CI log nothing shows up otherwise.
    const std::size_t stride = std::max<std::size_t>(1, misses.size() / 20);
    const auto progress = [&](const ExecutorProgress& p) {
      if (!opts.log) return;
      if (p.done % stride != 0 && p.done != p.total) return;
      const double mev_s =
          p.elapsed_s > 0.0
              ? static_cast<double>(
                    events_done.load(std::memory_order_relaxed)) /
                    p.elapsed_s / 1e6
              : 0.0;
      *opts.log << "campaign: " << p.done << "/" << p.total
                << " simulated, elapsed " << fmt(p.elapsed_s, 1) << " s, ETA "
                << fmt(p.eta_s, 1) << " s (" << fmt(p.tasks_per_sec, 2)
                << " runs/s, " << fmt(mev_s, 2) << " M events/s)"
                << std::endl;
    };
    const auto simulate_point = [&](std::size_t ui) {
      if (opts.profile) {
        Profiler prof;
        Profiler* prev = Profiler::install(&prof);
        results[ui] = run_experiment(spec_of(ui), eopts);
        Profiler::install(prev);
        std::lock_guard<std::mutex> lk(profile_mu);
        profile_total.absorb(prof);
      } else {
        results[ui] = run_experiment(spec_of(ui), eopts);
      }
      if (!results[ui].lp_stats.empty()) {
        std::lock_guard<std::mutex> lk(profile_mu);
        const std::vector<LpStats>& lps = results[ui].lp_stats;
        if (lp_totals.size() < lps.size()) lp_totals.resize(lps.size());
        for (std::size_t lp = 0; lp < lps.size(); ++lp) {
          const LpStats& p = lps[lp];
          LpStats& t = lp_totals[lp];
          t.events += p.events;
          t.windows += p.windows;
          t.msgs_in += p.msgs_in;
          t.msgs_out += p.msgs_out;
          t.scheduled += p.scheduled;
          // High-water marks take the campaign-wide max; the rest sum, so
          // horizon_advance_mean(t) is the pooled per-window mean.
          t.peak_pending = std::max(t.peak_pending, p.peak_pending);
          t.merge_high_water = std::max(t.merge_high_water, p.merge_high_water);
          t.horizon_advance += p.horizon_advance;
          t.run_s += p.run_s;
          t.wait_s += p.wait_s;
        }
      }
      simulated.fetch_add(1, std::memory_order_relaxed);
    };
    run_tasks(
        misses.size(), threads,
        [&](std::size_t i) {
          const std::size_t ui = misses[i];
          const ScenarioKey& key = key_of(ui);
          // Claim protocol: exactly one worker (thread here, process in
          // the campaign farm) simulates each point; claim() waits for the
          // one that holds it and returns false once its result is stored.
          if (store && !store->claim(key)) {
            results[ui] = store->get(key).value();
            results[ui].scenario = spec_of(ui).scenario;
            farmed.fetch_add(1, std::memory_order_relaxed);
          } else {
            try {
              simulate_point(ui);
            } catch (...) {
              // Hand the point on at once: two farm workers each holding
              // a failed point while waiting for the other's would hang.
              if (store) store->release(key);
              throw;
            }
            if (store) store->publish(key, results[ui]);
          }
          events_done.fetch_add(results[ui].sim_events,
                                std::memory_order_relaxed);
        },
        opts.log ? progress : std::function<void(const ExecutorProgress&)>{});
    for (std::size_t ph = 0; ph < kProfilePhases; ++ph) {
      st.phase_seconds[ph] =
          profile_total.seconds(static_cast<ProfilePhase>(ph));
    }
    st.lp_stats = std::move(lp_totals);
    st.simulated = simulated.load();
    st.farmed_out = farmed.load();
    if (opts.log && st.farmed_out > 0) {
      *opts.log << "campaign: " << st.farmed_out
                << " points simulated by other workers sharing "
                << store->dir() << std::endl;
    }
    // Aggregate the scheduler perf counters over what was actually run
    // (cache hits carry no fresh wall-clock data).
    for (const std::size_t ui : misses) {
      st.sim_events += results[ui].sim_events;
      st.peak_pending_max =
          std::max(st.peak_pending_max, results[ui].peak_pending);
      st.sim_wall_s += results[ui].sim_wall_s;
    }
    if (st.sim_wall_s > 0.0) {
      st.events_per_sec = static_cast<double>(st.sim_events) / st.sim_wall_s;
    }
    if (opts.log && st.sim_events > 0) {
      *opts.log << "campaign: " << st.sim_events << " events, peak heap "
                << st.peak_pending_max << ", "
                << fmt(st.events_per_sec / 1e6, 2) << " M events/s"
                << std::endl;
    }
    if (opts.log && opts.profile) {
      double total = 0.0;
      for (const double s : st.phase_seconds) total += s;
      *opts.log << "campaign: profile";
      for (std::size_t ph = 0; ph < kProfilePhases; ++ph) {
        const double s = st.phase_seconds[ph];
        *opts.log << (ph ? ", " : ": ") << to_string(static_cast<ProfilePhase>(ph))
                  << " " << fmt(s, 2) << " s ("
                  << fmt(total > 0.0 ? 100.0 * s / total : 0.0, 1) << "%)";
      }
      *opts.log << std::endl;
    }
    if (opts.log) {
      for (std::size_t lp = 0; lp < st.lp_stats.size(); ++lp) {
        const LpStats& p = st.lp_stats[lp];
        *opts.log << "campaign: lp " << lp << ": " << p.events
                  << " events, " << p.msgs_in << "/" << p.msgs_out
                  << " msgs in/out, run " << fmt(p.run_s, 2)
                  << " s, barrier wait " << fmt(p.wait_s, 2) << " s"
                  << std::endl;
      }
    }
  }

  std::vector<ExperimentResult> per_point(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    per_point[i] = results[point_to_unique[i]];
  }
  return per_point;
}

CampaignOutput run_campaign(const std::vector<CampaignSweep>& sweeps,
                            const CampaignOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  CampaignOutput out;
  const ExperimentOptions eopts = campaign_run_options(opts);

  // ---- Plan: one dumbbell point per (sweep, config, client count). ----
  std::vector<CampaignPoint> points;
  for (const CampaignSweep& sweep : sweeps) {
    for (const SweepConfig& config : sweep.configs) {
      for (const int n : sweep.client_counts) {
        Scenario sc = sweep.base;
        sc.num_clients = n;
        config.apply(sc);
        sc.seed = campaign_point_seed(sweep.base, config.name, n);
        const ScenarioKey key = scenario_key(sc, eopts);
        points.push_back({make_dumbbell_spec(sc), key});
      }
    }
  }
  const std::vector<ExperimentResult> results =
      run_campaign_points(points, opts, &out.stats);

  // ---- Assemble per-sweep series, in planning order. -------------------
  std::size_t next = 0;
  out.sweeps.reserve(sweeps.size());
  for (const CampaignSweep& sweep : sweeps) {
    std::vector<SweepSeries> series(sweep.configs.size());
    for (std::size_t c = 0; c < sweep.configs.size(); ++c) {
      series[c].name = sweep.configs[c].name;
      for (const int n : sweep.client_counts) {
        series[c].points.push_back({n, results[next++]});
      }
    }
    out.sweeps.emplace_back(sweep.name, std::move(series));
  }
  out.stats.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // ---- Artifacts. ------------------------------------------------------
  if (!opts.artifact_dir.empty()) {
    // The first point of every key, in planning order: one row (and one
    // metrics total) per unique scenario.
    std::vector<std::size_t> unique;
    {
      std::unordered_set<ScenarioKey, ScenarioKeyHash> seen;
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (seen.insert(points[i].key).second) unique.push_back(i);
      }
    }
    std::error_code ec;
    std::filesystem::create_directories(opts.artifact_dir, ec);
    if (ec) {
      if (opts.log) {
        *opts.log << "campaign: cannot create artifact dir "
                  << opts.artifact_dir << ": " << ec.message() << std::endl;
      }
    } else {
      for (std::size_t s = 0; s < sweeps.size(); ++s) {
        if (!sweeps[s].metric) continue;
        const std::string path =
            opts.artifact_dir + "/" + sweeps[s].name + ".csv";
        if (!write_sweep_csv(path, out.sweeps[s].second, sweeps[s].metric)) {
          if (opts.log) *opts.log << "campaign: failed to write " << path << std::endl;
        } else if (opts.log) {
          *opts.log << "campaign: wrote " << path << std::endl;
        }
      }
      // Per-scenario metrics snapshot, one row per unique scenario over
      // the union of metric names (histograms flatten to .count/.sum).
      // Missing metrics render as empty cells, so mixed-transport
      // campaigns still produce a rectangular CSV.
      {
        std::map<std::string, MetricKind> columns;
        for (const std::size_t i : unique) {
          for (const MetricPoint& m : results[i].metrics.points) {
            columns.emplace(m.name, m.kind);
          }
        }
        const std::string path = opts.artifact_dir + "/metrics.csv";
        std::ofstream mcsv(path, std::ios::trunc);
        // hw_threads/lp_shards describe the execution environment, not
        // the scenario: constant per invocation, but recorded per row so
        // concatenated CSVs from different machines stay self-describing.
        const unsigned hw_threads =
            std::max(1u, std::thread::hardware_concurrency());
        mcsv << "key,num_clients,seed,hw_threads,lp_shards";
        for (const auto& [name, kind] : columns) {
          if (kind == MetricKind::kHistogram) {
            mcsv << ',' << name << ".count," << name << ".sum";
          } else {
            mcsv << ',' << name;
          }
        }
        mcsv << '\n';
        mcsv.precision(17);
        for (const std::size_t i : unique) {
          const ExperimentResult& r = results[i];
          mcsv << points[i].key.hex() << ',' << r.scenario.num_clients << ','
               << r.scenario.seed << ',' << hw_threads << ','
               << opts.lp_shards;
          for (const auto& [name, kind] : columns) {
            const MetricPoint* m = r.metrics.find(name);
            if (kind == MetricKind::kHistogram) {
              if (m) {
                mcsv << ',' << static_cast<std::uint64_t>(m->value) << ','
                     << m->sum;
              } else {
                mcsv << ",,";
              }
            } else if (m) {
              if (kind == MetricKind::kCounter) {
                mcsv << ',' << static_cast<std::uint64_t>(m->value);
              } else {
                mcsv << ',' << m->value;
              }
            } else {
              mcsv << ',';
            }
          }
          mcsv << '\n';
        }
        mcsv.flush();
        if (opts.log) {
          *opts.log << (mcsv ? "campaign: wrote " : "campaign: failed to write ")
                    << path << std::endl;
        }
      }
      const std::string manifest = opts.artifact_dir + "/manifest.json";
      std::ofstream mf(manifest, std::ios::trunc);
      mf << "{\n"
         << "  \"version\": " << quoted(BURST_VERSION_STRING) << ",\n"
         << "  \"result_schema\": " << kResultSchemaVersion << ",\n"
         << "  \"generated_unix\": " << static_cast<long long>(std::time(nullptr))
         << ",\n"
         << "  \"wall_s\": " << out.stats.wall_s << ",\n"
         << "  \"cache_dir\": " << quoted(opts.cache_dir) << ",\n"
         << "  \"cache_enabled\": "
         << (opts.cache_dir.empty() ? "false" : "true") << ",\n"
         << "  \"stats\": {\"planned\": " << out.stats.planned
         << ", \"unique\": " << out.stats.unique
         << ", \"cache_hits\": " << out.stats.cache_hits
         << ", \"simulated\": " << out.stats.simulated
         << ", \"farmed_out\": " << out.stats.farmed_out
         << ", \"store_skipped\": " << out.stats.store_skipped << "},\n"
         << "  \"perf\": {\"sim_events\": " << out.stats.sim_events
         << ", \"peak_pending_max\": " << out.stats.peak_pending_max
         << ", \"sim_wall_s\": " << out.stats.sim_wall_s
         << ", \"events_per_sec\": " << out.stats.events_per_sec;
      mf << ", \"phase_seconds\": {";
      for (std::size_t ph = 0; ph < kProfilePhases; ++ph) {
        mf << (ph ? ", " : "") << "\"" << to_string(static_cast<ProfilePhase>(ph))
           << "\": " << out.stats.phase_seconds[ph];
      }
      mf << "}";
      // Parallel-engine accounting: one row per logical process, summed
      // over the scenarios simulated by this invocation (high-water marks
      // are maxima, horizon_advance_mean is the pooled per-window mean).
      mf << ", \"hw_threads\": "
         << std::max(1u, std::thread::hardware_concurrency())
         << ", \"lp_shards\": " << opts.lp_shards << ", \"lp_phases\": [";
      for (std::size_t lp = 0; lp < out.stats.lp_stats.size(); ++lp) {
        const LpStats& p = out.stats.lp_stats[lp];
        mf << (lp ? ", " : "") << "{\"lp\": " << lp
           << ", \"events\": " << p.events << ", \"windows\": " << p.windows
           << ", \"msgs_in\": " << p.msgs_in
           << ", \"msgs_out\": " << p.msgs_out
           << ", \"merge_high_water\": " << p.merge_high_water
           << ", \"horizon_advance_mean\": " << horizon_advance_mean(p)
           << ", \"run_s\": " << p.run_s
           << ", \"wait_s\": " << p.wait_s << "}";
      }
      mf << "]},\n";
      // Campaign-wide counter totals over every unique scenario (cache
      // hits included — the store round-trips the snapshot).
      {
        std::map<std::string, std::uint64_t> totals;
        for (const std::size_t i : unique) {
          for (const MetricPoint& m : results[i].metrics.points) {
            if (m.kind == MetricKind::kCounter) {
              totals[m.name] += static_cast<std::uint64_t>(m.value);
            }
          }
        }
        mf << "  \"metrics_totals\": {";
        bool first = true;
        for (const auto& [name, total] : totals) {
          mf << (first ? "" : ", ") << quoted(name) << ": " << total;
          first = false;
        }
        mf << "},\n";
      }
      mf << "  \"sweeps\": [\n";
      for (std::size_t s = 0; s < sweeps.size(); ++s) {
        const CampaignSweep& sweep = sweeps[s];
        mf << "    {\"name\": " << quoted(sweep.name)
           << ", \"metric\": " << quoted(sweep.metric_name)
           << ", \"base_seed\": " << sweep.base.seed << ", \"clients\": [";
        for (std::size_t p = 0; p < sweep.client_counts.size(); ++p) {
          mf << (p ? "," : "") << sweep.client_counts[p];
        }
        mf << "], \"series\": [";
        for (std::size_t c = 0; c < sweep.configs.size(); ++c) {
          mf << (c ? "," : "") << "{\"name\": "
             << quoted(sweep.configs[c].name) << ", \"seeds\": [";
          for (std::size_t p = 0; p < sweep.client_counts.size(); ++p) {
            mf << (p ? "," : "")
               << campaign_point_seed(sweep.base, sweep.configs[c].name,
                                      sweep.client_counts[p]);
          }
          mf << "]}";
        }
        mf << "]}" << (s + 1 < sweeps.size() ? "," : "") << "\n";
      }
      mf << "  ]\n}\n";
      mf.flush();
      if (opts.log) {
        if (mf) {
          *opts.log << "campaign: wrote " << manifest << std::endl;
        } else {
          *opts.log << "campaign: failed to write " << manifest << std::endl;
        }
      }
    }
  }
  return out;
}

ResultMetric campaign_metric(const std::string& name) {
  using R = const ExperimentResult&;
  if (name == "mean_delay") return [](R r) { return r.delay.mean(); };
  if (name == "max_delay") return [](R r) { return r.delay.max(); };
  // Any other name is a field list entry, read back by its position.
  const ExperimentResult blank;
  int found = -1;
  int index = 0;
  for_each_result_field(blank, [&](const ResultField& f, const auto&) {
    if (name == f.name) found = index;
    ++index;
  });
  if (found < 0) return nullptr;
  return [found](R r) {
    double v = 0.0;
    int i = 0;
    for_each_result_field(r, [&](const ResultField&, const auto& member) {
      if (i++ == found) v = static_cast<double>(member);
    });
    return v;
  };
}

std::vector<CampaignSweep> paper_figure_campaign(const Scenario& base) {
  // The paper plots Fig 2 from ~5 clients and Figs 3, 4, 13 from 30; the
  // figure benches run these sweeps by name (bench::figure_sweep).
  std::vector<int> fig2 = range(4, 36, 4);
  for (int n : {38, 39, 40, 44, 48, 52, 56, 60}) fig2.push_back(n);
  const std::vector<int> fig34 = range(30, 60, 3);

  std::vector<CampaignSweep> sweeps;
  sweeps.push_back({"fig02_cov", "c.o.v. of per-RTT gateway arrivals", base,
                    fig2, paper_protocol_set(true), campaign_metric("cov")});
  sweeps.push_back({"fig03_throughput", "packets successfully transmitted",
                    base, fig34, paper_protocol_set(false),
                    campaign_metric("delivered")});
  sweeps.push_back({"fig04_loss", "packet loss percentage", base, fig34,
                    paper_protocol_set(false), campaign_metric("loss_pct")});
  sweeps.push_back({"fig13_timeout_dupack", "timeouts / duplicate ACKs", base,
                    fig34, paper_protocol_set(false),
                    campaign_metric("timeout_dupack_ratio")});
  return sweeps;
}

}  // namespace burst
