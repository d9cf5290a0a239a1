// Flight recorder: a fixed-budget streaming sampler for runs too big for
// the per-packet TraceSink (DESIGN.md §14.3).
//
// The full trace ring costs O(packets) memory and export time — fine at
// N=60, hopeless at the mean-field scale (N=10^5 is ~10^8 packet-lifecycle
// records for 6 simulated seconds). The flight recorder inverts the deal:
// it wakes up once per sampling period, snapshots a handful of aggregates
// (measured-queue occupancy and RED average, queue arrival/drop deltas,
// scheduler event deltas, an aggregate cwnd histogram over the run's TCP
// senders, and an online c.o.v. of per-period arrival counts via
// RunningStats), and goes back to sleep. Cost per sample is O(1) + one
// O(flows) scan of the senders' cwnd; total memory is a hard budget fixed
// at arm() time.
//
// Budget discipline: the sample vector is reserved once, at
// max_samples * sizeof(FlightSample) bytes (~200 B/sample, so the default
// 4096-sample budget is under 1 MB — two orders of magnitude below the
// N=10^5 flows' TCP agents). A run that outlives the budget never grows it:
// the recorder decimates (drops every other sample, doubles the period)
// and keeps going, so any duration fits the same footprint at
// correspondingly coarser resolution.
//
// Unlike TraceSink taps, the recorder schedules real sampler events, so a
// flight-recorded run is NOT event-count-identical to a bare one (the
// packet timeline is untouched — sampling reads state, never mutates it).
// The bench gate holds its wall overhead at ≤5% of the untraced run.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <utility>
#include <vector>

#include "src/net/queue.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/time.hpp"
#include "src/stats/running_stats.hpp"

namespace burst {

class TcpSender;

struct FlightRecorderOptions {
  /// Sampling cadence in simulated seconds (doubles on each decimation).
  Time period = 0.1;
  /// Hard sample budget; the recorder decimates instead of growing.
  std::size_t max_samples = 4096;
};

/// One periodic snapshot. Counters are deltas since the previous sample;
/// gauges are instantaneous.
struct FlightSample {
  Time t = 0.0;
  Time interval = 0.0;    // cadence in force when this sample was taken
  double qlen = 0.0;      // measured-queue occupancy (packets)
  double red_avg = -1.0;  // RED's EWMA average, -1 when not a RED queue
  std::uint64_t events = 0;    // scheduler events since previous sample
  std::uint64_t arrivals = 0;  // queue arrivals since previous sample
  std::uint64_t drops = 0;     // queue drops since previous sample
  /// Online c.o.v. of the per-interval arrival counts so far (restarts
  /// after a decimation — mixing cadences would corrupt the moments).
  double cov = 0.0;
  double cwnd_mean = 0.0;  // aggregate over the observed senders
  double cwnd_max = 0.0;
  /// log2-binned cwnd histogram: bin i counts senders with cwnd in
  /// [2^i, 2^(i+1)), last bin open-ended.
  std::array<std::uint32_t, 12> cwnd_hist{};
};

class FlightRecorder {
 public:
  static constexpr int kHistBins = 12;

  explicit FlightRecorder(FlightRecorderOptions opts = {});

  /// Points the recorder at the queue under study (occupancy, arrival and
  /// drop deltas, RED average). Optional; call before arm().
  void observe_queue(const Queue* q) { queue_ = q; }
  /// The TCP senders whose cwnd feeds the aggregate histogram. Optional —
  /// parallel runs skip it (reading another LP's senders from the sampler
  /// thread would race). Call before arm().
  void observe_senders(std::vector<const TcpSender*> senders) {
    senders_ = std::move(senders);
  }
  /// LP id stamped on exported records (0 for sequential runs).
  void set_lp(int lp) { lp_ = lp; }

  /// Reserves the full sample budget and schedules the periodic sampler
  /// on @p sim until @p until. Call exactly once, before the run; @p sim
  /// must be the Simulator that drives the observed components.
  void arm(Simulator& sim, Time until);

  const std::vector<FlightSample>& samples() const { return samples_; }
  /// Current cadence (opts.period, doubled once per decimation).
  Time period() const { return period_; }
  std::uint64_t decimations() const { return decimations_; }
  /// Total snapshots ever taken, including decimated-away ones.
  std::uint64_t taken() const { return taken_; }
  /// The fixed budget reserved at arm() time, in bytes.
  std::size_t bytes_reserved() const { return bytes_reserved_; }
  int lp() const { return lp_; }

  /// Compact time-series exports. CSV: one header plus one row per
  /// sample; JSONL: `fr_sample` records per scripts/trace_event.schema.json.
  bool write_csv(std::ostream& os) const;
  bool write_jsonl(std::ostream& os) const;

 private:
  void take_sample(Simulator& sim);
  void schedule_next(Simulator& sim, Time until);
  /// Halves the held samples (keep every other) and doubles the period.
  void decimate();

  FlightRecorderOptions opts_;
  const Queue* queue_ = nullptr;
  std::vector<const TcpSender*> senders_;
  int lp_ = 0;
  Time period_ = 0.0;
  std::vector<FlightSample> samples_;
  std::size_t bytes_reserved_ = 0;
  std::uint64_t decimations_ = 0;
  std::uint64_t taken_ = 0;
  std::uint64_t last_events_ = 0;
  std::uint64_t last_arrivals_ = 0;
  std::uint64_t last_drops_ = 0;
  RunningStats arrival_counts_;  // per-interval arrivals at this cadence
};

}  // namespace burst
