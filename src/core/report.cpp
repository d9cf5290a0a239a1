#include "src/core/report.hpp"

#include <algorithm>
#include <cassert>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace burst {

void print_table(std::ostream& os, const std::vector<std::string>& header,
                 const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> width(header.size());
  for (std::size_t c = 0; c < header.size(); ++c) width[c] = header[c].size();
  for (const auto& row : rows) {
    assert(row.size() == header.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : "  ") << std::setw(static_cast<int>(width[c]))
         << row[c];
    }
    os << '\n';
  };
  print_row(header);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) total += width[c] + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows) print_row(row);
}

std::string fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

void print_metric_vs_clients(std::ostream& os,
                             const std::vector<SweepSeries>& series,
                             const std::string& metric_name,
                             const ResultMetric& metric, int precision) {
  if (series.empty()) return;
  std::vector<std::string> header{"clients"};
  for (const auto& s : series) header.push_back(s.name);
  std::vector<std::vector<std::string>> rows;
  const std::size_t n_points = series.front().points.size();
  for (std::size_t p = 0; p < n_points; ++p) {
    std::vector<std::string> row;
    row.push_back(std::to_string(series.front().points[p].num_clients));
    for (const auto& s : series) {
      row.push_back(fmt(metric(s.points[p].result), precision));
    }
    rows.push_back(std::move(row));
  }
  os << metric_name << " vs number of clients\n";
  print_table(os, header, rows);
}

void print_cwnd_traces(std::ostream& os,
                       const std::vector<TraceSeries>& traces, Time t_end,
                       Time sample_period, int max_rows) {
  if (traces.empty()) return;
  std::vector<std::string> header{"t(s)"};
  for (const auto& t : traces) header.push_back(t.name());
  std::vector<std::vector<std::string>> rows;
  // Pick a stride so at most max_rows rows are printed.
  const int total = static_cast<int>(t_end / sample_period);
  const int stride = std::max(1, total / std::max(1, max_rows));
  for (int i = 0; i <= total; i += stride) {
    const Time t = i * sample_period;
    std::vector<std::string> row{fmt(t, 1)};
    for (const auto& tr : traces) row.push_back(fmt(tr.value_at(t, 1.0), 1));
    rows.push_back(std::move(row));
  }
  print_table(os, header, rows);
}

bool write_trace_csv(const std::string& path, const TraceSeries& trace) {
  std::ofstream f(path);
  if (!f) return false;
  f << "time," << trace.name() << '\n';
  for (const auto& [t, v] : trace.points()) f << t << ',' << v << '\n';
  f.flush();
  return static_cast<bool>(f);
}

bool write_sweep_csv(const std::string& path,
                     const std::vector<SweepSeries>& series,
                     const ResultMetric& metric) {
  std::ofstream f(path);
  if (!f) return false;
  f << "clients";
  for (const auto& s : series) f << ',' << s.name;
  f << '\n';
  for (std::size_t p = 0;
       !series.empty() && p < series.front().points.size(); ++p) {
    f << series.front().points[p].num_clients;
    for (const auto& s : series) f << ',' << metric(s.points[p].result);
    f << '\n';
  }
  f.flush();
  return static_cast<bool>(f);
}

}  // namespace burst
