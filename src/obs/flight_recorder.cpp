#include "src/obs/flight_recorder.hpp"

#include <ostream>

#include "src/net/red_queue.hpp"
#include "src/obs/format.hpp"
#include "src/transport/tcp_sender.hpp"

namespace burst {

namespace {

using obs_format::append_double;
using obs_format::append_u64;

/// log2 bin for a cwnd value: [2^i, 2^(i+1)) -> i, clamped to the last bin.
std::size_t cwnd_bin(double cwnd) {
  constexpr std::size_t kLast =
      static_cast<std::size_t>(FlightRecorder::kHistBins) - 1;
  std::size_t bin = 0;
  double edge = 2.0;
  while (cwnd >= edge && bin < kLast) {
    edge *= 2.0;
    ++bin;
  }
  return bin;
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderOptions opts)
    : opts_(opts), period_(opts.period) {
  if (!(period_ > 0.0)) period_ = 0.1;
  if (opts_.max_samples < 2) opts_.max_samples = 2;
}

void FlightRecorder::arm(Simulator& sim, Time until) {
  samples_.reserve(opts_.max_samples);
  bytes_reserved_ = opts_.max_samples * sizeof(FlightSample);
  last_events_ = sim.events_run();
  if (queue_ != nullptr) {
    last_arrivals_ = queue_->stats().arrivals;
    last_drops_ = queue_->stats().drops;
  }
  schedule_next(sim, until);
}

void FlightRecorder::schedule_next(Simulator& sim, Time until) {
  if (sim.now() + period_ > until) return;
  sim.schedule(period_, [this, &sim, until] {
    take_sample(sim);
    schedule_next(sim, until);
  });
}

void FlightRecorder::decimate() {
  // Keep every other sample (the even-indexed ones, so t=0-adjacent
  // history survives) and coarsen the cadence; the budget never grows.
  std::size_t w = 0;
  for (std::size_t r = 0; r < samples_.size(); r += 2) {
    samples_[w++] = samples_[r];
  }
  samples_.resize(w);
  period_ *= 2.0;
  ++decimations_;
  // Moments of per-interval counts are cadence-specific: restart them.
  arrival_counts_ = RunningStats();
}

void FlightRecorder::take_sample(Simulator& sim) {
  if (samples_.size() >= opts_.max_samples) decimate();
  FlightSample s;
  s.t = sim.now();
  s.interval = period_;
  const std::uint64_t events_now = sim.events_run();
  s.events = events_now - last_events_;
  last_events_ = events_now;
  if (queue_ != nullptr) {
    s.qlen = static_cast<double>(queue_->len());
    const QueueStats& qs = queue_->stats();
    s.arrivals = qs.arrivals - last_arrivals_;
    s.drops = qs.drops - last_drops_;
    last_arrivals_ = qs.arrivals;
    last_drops_ = qs.drops;
    arrival_counts_.add(static_cast<double>(s.arrivals));
    if (const auto* red = dynamic_cast<const RedQueue*>(queue_)) {
      s.red_avg = red->avg();
    }
  }
  s.cov = arrival_counts_.cov();
  if (!senders_.empty()) {
    double sum = 0.0;
    for (const TcpSender* sender : senders_) {
      const double w = sender->cwnd();
      sum += w;
      if (w > s.cwnd_max) s.cwnd_max = w;
      ++s.cwnd_hist[cwnd_bin(w)];
    }
    s.cwnd_mean = sum / static_cast<double>(senders_.size());
  }
  samples_.push_back(s);
  ++taken_;
}

bool FlightRecorder::write_csv(std::ostream& os) const {
  std::string out;
  out +=
      "t,interval,qlen,red_avg,events,arrivals,drops,cov,cwnd_mean,"
      "cwnd_max";
  for (int b = 0; b < kHistBins; ++b) {
    out += ",cwnd_hist";
    append_u64(out, static_cast<std::uint64_t>(b));
  }
  out += '\n';
  for (const FlightSample& s : samples_) {
    append_double(out, s.t);
    out += ',';
    append_double(out, s.interval);
    out += ',';
    append_double(out, s.qlen);
    out += ',';
    append_double(out, s.red_avg);
    out += ',';
    append_u64(out, s.events);
    out += ',';
    append_u64(out, s.arrivals);
    out += ',';
    append_u64(out, s.drops);
    out += ',';
    append_double(out, s.cov);
    out += ',';
    append_double(out, s.cwnd_mean);
    out += ',';
    append_double(out, s.cwnd_max);
    for (const std::uint32_t h : s.cwnd_hist) {
      out += ',';
      append_u64(out, h);
    }
    out += '\n';
  }
  os << out;
  return static_cast<bool>(os);
}

bool FlightRecorder::write_jsonl(std::ostream& os) const {
  std::string line;
  for (const FlightSample& s : samples_) {
    line.clear();
    line += "{\"t\":";
    append_double(line, s.t);
    line += ",\"type\":\"fr_sample\",\"lp\":";
    append_u64(line, static_cast<std::uint64_t>(lp_));
    line += ",\"interval\":";
    append_double(line, s.interval);
    line += ",\"qlen\":";
    append_double(line, s.qlen);
    line += ",\"red_avg\":";
    append_double(line, s.red_avg);
    line += ",\"events\":";
    append_u64(line, s.events);
    line += ",\"arrivals\":";
    append_u64(line, s.arrivals);
    line += ",\"drops\":";
    append_u64(line, s.drops);
    line += ",\"cov\":";
    append_double(line, s.cov);
    line += ",\"cwnd_mean\":";
    append_double(line, s.cwnd_mean);
    line += ",\"cwnd_max\":";
    append_double(line, s.cwnd_max);
    line += ",\"cwnd_hist\":[";
    for (int b = 0; b < kHistBins; ++b) {
      if (b > 0) line += ',';
      append_u64(line, s.cwnd_hist[static_cast<std::size_t>(b)]);
    }
    line += "]}\n";
    os << line;
  }
  return static_cast<bool>(os);
}

}  // namespace burst
