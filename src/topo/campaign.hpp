// Scenario-file campaigns: a `.camp` spec sweeps fields over one or more
// `.topo` topology files and runs the points through the shared campaign
// engine (run_campaign_points), whose ResultStore claim protocol lets any
// number of worker processes chew on the same campaign concurrently with
// zero duplicated simulations and crash-safe resume.
//
// Grammar (one statement per line, `#` comments):
//
//   campaign NAME            # optional; defaults to the file stem
//   scenario PATH            # repeatable; relative to the .camp file
//   metric NAME              # CSV metric column (default: cov)
//   set FIELD VALUE          # fixed override applied to every point
//   sweep FIELD V1 V2 ...    # cartesian axis; repeatable
//
// Points = scenario files x the cartesian product of every sweep axis.
// Each point re-parses its .topo file with `set` + sweep assignments as
// overrides, so validation and fingerprinting see exactly what will run.
// Unless `seed` itself is set or swept, each point's seed is derived from
// (file seed, "<scenario> <label>") — decorrelated across points, stable
// across runs and worker counts.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/experiment.hpp"
#include "src/run/campaign.hpp"
#include "src/run/scenario_key.hpp"
#include "src/topo/parser.hpp"

namespace burst {

struct TopoCampaignSweep {
  std::string field;
  std::vector<std::string> values;
};

struct TopoCampaignSpec {
  std::string name;
  std::string metric = "cov";
  std::vector<std::string> scenario_files;  // resolved against the .camp dir
  TopoOverrides sets;
  std::vector<TopoCampaignSweep> sweeps;

  /// scenario_files.size() x product of sweep axis sizes.
  std::size_t num_points() const;
};

/// Parses a `.camp` spec. Relative `scenario` paths are resolved against
/// @p base_dir. Returns false and fills *err on malformed input.
bool parse_camp(const std::string& text, const std::string& default_name,
                const std::string& base_dir, TopoCampaignSpec* out,
                TopoError* err);

/// Reads and parses @p path; campaign name defaults to the file stem.
bool load_camp_file(const std::string& path, TopoCampaignSpec* out,
                    TopoError* err);

struct TopoCampaignPoint {
  std::string scenario;  // topo file stem
  std::string label;     // "field=v field=v" sweep assignment, "" if none
  std::vector<std::pair<std::string, std::string>> assignment;
  ScenarioKey key;
  std::uint64_t seed = 0;
  int num_clients = 0;
  ExperimentResult result;
};

struct TopoCampaignOutput {
  std::string name;
  std::vector<TopoCampaignPoint> points;
  CampaignStats stats;
  std::string csv_path;  // "" unless the artifact was written
};

/// Expands and validates a campaign, runs its points through
/// run_campaign_points (claim-aware when a cache_dir is set; keyed and run
/// with opts.lp_shards, profiled with opts.profile) and optionally writes
/// `<artifact_dir>/<name>.csv`. Returns nullopt and fills *err on any
/// spec/topology error; the error's file context is already rendered into
/// err->message where it concerns a scenario file.
std::optional<TopoCampaignOutput> run_topo_campaign(
    const TopoCampaignSpec& spec, const CampaignOptions& opts,
    TopoError* err);

}  // namespace burst
