#include "src/topo/campaign.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace burst {
namespace {

bool camp_fail(TopoError* err, int line, int col, std::string msg) {
  err->line = line;
  err->col = col;
  err->message = std::move(msg);
  return false;
}

}  // namespace

std::size_t TopoCampaignSpec::num_points() const {
  std::size_t n = scenario_files.size();
  for (const TopoCampaignSweep& s : sweeps) n *= s.values.size();
  return n;
}

bool parse_camp(const std::string& text, const std::string& default_name,
                const std::string& base_dir, TopoCampaignSpec* out,
                TopoError* err) {
  TopoCampaignSpec spec;
  spec.name = default_name;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::vector<LineToken> tok = tokenize_line(line);
    if (tok.empty()) continue;
    const std::string& kw = tok[0].text;
    if (kw == "campaign") {
      if (tok.size() != 2) {
        return camp_fail(err, lineno, tok[0].col, "expected: campaign NAME");
      }
      spec.name = tok[1].text;
    } else if (kw == "scenario") {
      if (tok.size() != 2) {
        return camp_fail(err, lineno, tok[0].col, "expected: scenario PATH");
      }
      std::filesystem::path p(tok[1].text);
      if (p.is_relative() && !base_dir.empty()) {
        p = std::filesystem::path(base_dir) / p;
      }
      spec.scenario_files.push_back(p.string());
    } else if (kw == "metric") {
      if (tok.size() != 2) {
        return camp_fail(err, lineno, tok[0].col, "expected: metric NAME");
      }
      if (!campaign_metric(tok[1].text)) {
        return camp_fail(err, lineno, tok[1].col,
                         "unknown metric '" + tok[1].text + "'");
      }
      spec.metric = tok[1].text;
    } else if (kw == "set") {
      if (tok.size() != 3) {
        return camp_fail(err, lineno, tok[0].col, "expected: set FIELD VALUE");
      }
      spec.sets.emplace_back(tok[1].text, tok[2].text);
    } else if (kw == "sweep") {
      if (tok.size() < 3) {
        return camp_fail(err, lineno, tok[0].col,
                         "expected: sweep FIELD V1 [V2 ...]");
      }
      TopoCampaignSweep sw;
      sw.field = tok[1].text;
      for (std::size_t i = 2; i < tok.size(); ++i) {
        sw.values.push_back(tok[i].text);
      }
      for (const TopoCampaignSweep& prev : spec.sweeps) {
        if (prev.field == sw.field) {
          return camp_fail(err, lineno, tok[1].col,
                           "duplicate sweep axis '" + sw.field + "'");
        }
      }
      spec.sweeps.push_back(std::move(sw));
    } else {
      return camp_fail(err, lineno, tok[0].col,
                       "unknown statement '" + kw + "'");
    }
  }
  if (spec.scenario_files.empty()) {
    return camp_fail(err, 0, 0, "campaign declares no scenario files");
  }
  *out = std::move(spec);
  return true;
}

bool load_camp_file(const std::string& path, TopoCampaignSpec* out,
                    TopoError* err) {
  std::string text;
  if (!read_text_file(path, &text, err)) return false;
  const std::filesystem::path p(path);
  return parse_camp(text, p.stem().string(), p.parent_path().string(), out,
                    err);
}

std::optional<TopoCampaignOutput> run_topo_campaign(
    const TopoCampaignSpec& spec, const CampaignOptions& opts,
    TopoError* err) {
  const auto t0 = std::chrono::steady_clock::now();
  TopoCampaignOutput out;
  out.name = spec.name;
  const ResultMetric metric = campaign_metric(spec.metric);
  if (!metric) {
    camp_fail(err, 0, 0, "unknown metric '" + spec.metric + "'");
    return std::nullopt;
  }
  const ExperimentOptions eopts = campaign_run_options(opts);

  // Does the campaign pin the seed itself? Then honor it verbatim.
  bool seed_fixed = false;
  for (const auto& [field, value] : spec.sets) {
    if (field == "seed") seed_fixed = true;
  }
  for (const TopoCampaignSweep& s : spec.sweeps) {
    if (s.field == "seed") seed_fixed = true;
  }

  // ---- Expand: files x cartesian sweep product; re-parse per point so
  // $field substitution sees each point's overrides. ---------------------
  std::vector<CampaignPoint> points;
  for (const std::string& file : spec.scenario_files) {
    std::vector<std::size_t> idx(spec.sweeps.size(), 0);
    for (;;) {
      TopoOverrides overrides = spec.sets;
      TopoCampaignPoint pt;
      pt.scenario = std::filesystem::path(file).stem().string();
      for (std::size_t a = 0; a < spec.sweeps.size(); ++a) {
        const std::string& field = spec.sweeps[a].field;
        const std::string& value = spec.sweeps[a].values[idx[a]];
        overrides.emplace_back(field, value);
        pt.assignment.emplace_back(field, value);
        if (!pt.label.empty()) pt.label += ' ';
        pt.label += field + "=" + value;
      }
      TopoError perr;
      auto parsed = load_topo_file(file, &perr, overrides);
      if (!parsed) {
        camp_fail(err, 0, 0, perr.render(file));
        return std::nullopt;
      }
      if (!seed_fixed) {
        // Value-keyed, not index-keyed: the same (file, assignment) point
        // gets the same seed regardless of sweep ordering or worker.
        parsed->scenario.seed = derive_seed(
            parsed->scenario.seed, pt.scenario + " " + pt.label, 0);
      }
      pt.seed = parsed->scenario.seed;
      pt.num_clients = parsed->scenario.num_clients;
      pt.key = topo_key(*parsed, eopts);
      points.push_back({std::move(*parsed), pt.key});
      out.points.push_back(std::move(pt));

      std::size_t a = 0;
      for (; a < idx.size(); ++a) {
        if (++idx[a] < spec.sweeps[a].values.size()) break;
        idx[a] = 0;
      }
      if (idx.empty() || a == idx.size()) break;
    }
  }

  std::vector<ExperimentResult> results =
      run_campaign_points(points, opts, &out.stats);
  for (std::size_t i = 0; i < out.points.size(); ++i) {
    out.points[i].result = std::move(results[i]);
  }
  out.stats.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // ---- CSV artifact: one row per point, grouped-by-scenario friendly
  // (scripts/plot_figures.py splits series on the scenario column). ------
  if (!opts.artifact_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts.artifact_dir, ec);
    const std::string path = opts.artifact_dir + "/" + spec.name + ".csv";
    std::ofstream csv(path, std::ios::trunc);
    csv << "scenario,label,key,seed,clients";
    for (const TopoCampaignSweep& s : spec.sweeps) csv << ',' << s.field;
    csv << ',' << spec.metric << '\n';
    csv.precision(17);
    for (const TopoCampaignPoint& pt : out.points) {
      csv << pt.scenario << ',' << pt.label << ',' << pt.key.hex() << ','
          << pt.seed << ',' << pt.num_clients;
      for (const auto& [field, value] : pt.assignment) csv << ',' << value;
      csv << ',' << metric(pt.result) << '\n';
    }
    csv.flush();
    if (csv) {
      out.csv_path = path;
      if (opts.log) *opts.log << "campaign: wrote " << path << std::endl;
    } else if (opts.log) {
      *opts.log << "campaign: failed to write " << path << std::endl;
    }
  }
  return out;
}

}  // namespace burst
