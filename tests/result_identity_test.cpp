// Bit-identity guard for the event-core overhaul (and any future hot-path
// rewrite): run_experiment must produce *byte-identical* metrics for a set
// of pinned seed scenarios. Unlike seed_stability_test (tolerance bands),
// these pins fail on any change to event ordering, RNG consumption, or
// metric arithmetic.
//
// The canonical rendering below covers every deterministic metric of
// ExperimentResult (hexfloat doubles, so the text is bit-exact). The
// wall-clock performance counter (sim_wall_s) is intentionally excluded. To re-pin after an *intentional* semantic change, run with
// --gtest_also_run_disabled_tests=0 as usual: each failure message prints
// the new hash; update the table and record the reason in the PR.
//
// History:
//  * Pinned on the pre-overhaul binary-heap scheduler (PR 2 baseline).
//    The indexed 4-ary-heap swap reproduced every hash bit-for-bit.
//  * Re-pinned in the same PR for the intentional metric fixes. Only
//    reno_red_n50 changed (the RED drop-probability off-by-one shifts its
//    drop sequence). The c.o.v. bin-count rounding fix does not touch
//    these pins — their (duration - warmup) span is 5 s = 62.5 bin
//    widths, not a boundary — and the Fig 13 dupacks == 0 ratio
//    convention never fires here (every pinned TCP run sees dupacks).
//  * Re-pinned once more when sim_events/peak_pending joined the
//    canonical rendering (all five hashes moved; the underlying metrics
//    did not).
//  * Re-pinned two scenarios for the PR 3 transport bugfixes (the other
//    three are byte-identical). vegas_droptail_n30: Vegas now measures
//    Actual from delivered (cumulatively acked) packets instead of
//    data_pkts_sent — transmissions count retransmissions, which inflated
//    Actual exactly during loss episodes — and guards the fine-grained
//    retransmit so one hole is resent at most once per loss detection.
//    reno_delack_n45_traced: the delayed-ACK sink's immediate-ACK paths
//    no longer overwrite a held segment's older echo timestamp or OR in
//    the new segment's Karn taint (RFC 7323: echo the timestamp of the
//    last segment that advanced the window), which shifts RTT samples and
//    hence RTO/srtt trajectories in every delack scenario.
//  * Re-pinned reno_red_n50 (only) for the RED wake-from-idle fix: the
//    queue now applies Floyd–Jacobson's pure decay avg ← (1-w)^m·avg on
//    the first arrival after an idle gap instead of stacking an extra
//    EWMA step (with q = 0) on top, which biased avg low after every
//    idle period and shifted the early-drop sequence. The timing-wheel
//    scheduler backend landed in the same PR with all five pins (and the
//    conformance goldens) byte-identical before this fix was applied.
//  * PR 4 (link-event fusion + lazy timers) split the pin in two: the
//    metrics hash below no longer folds in sim_events/peak_pending;
//    those are pinned as explicit per-scenario values instead, so a
//    hot-path rewrite that legitimately changes the *event count* while
//    leaving every packet-timing-derived metric bit-identical shows up
//    as exactly that — a counter delta with the metrics hash unchanged.
//  * reno_delack_n45_traced's counters moved 118425 -> 118305 events and
//    398 -> 396 peak pending, its hash unchanged, when the periodic cwnd
//    samples stopped being scheduled events: the 0.1 s grid is now filled
//    after the run from the recorded window writes. The 120 events are
//    2 traced clients x 60 grid points; the new counters equal the same
//    scenario run untraced.
//  * reno_delack_n45_traced re-pinned 58adc366b915eda1 -> bfb10609129ae0e7,
//    its counters unchanged, when cwnd stopped being recorded twice: its
//    two series are now read from the event trace (TraceSink::cwnd_series),
//    which holds the post-event window changes only. Each series lost its
//    attach-time point and its 0.1 s grid, and client 10's also lost one
//    same-instant write that repeated the window's value (195 writes,
//    193 changes; client 1 had 162 and 161). Every change point is kept.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/experiment.hpp"
#include "src/core/report.hpp"
#include "src/obs/trace.hpp"
#include "src/run/scenario_key.hpp"

namespace burst {
namespace {

void append_double(std::ostringstream& os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  os << buf << ';';
}

void append_u64(std::ostringstream& os, std::uint64_t v) { os << v << ';'; }

// Every deterministic field of ExperimentResult, in declaration order,
// then the traced clients' cwnd series.
std::string canonical_metrics(const ExperimentResult& r,
                              const std::vector<TraceSeries>& cwnd = {}) {
  std::ostringstream os;
  append_double(os, r.cov);
  append_double(os, r.poisson_cov);
  append_double(os, r.mean_per_bin);
  append_u64(os, r.app_generated);
  append_u64(os, r.delivered);
  append_u64(os, r.gw_arrivals);
  append_u64(os, r.gw_drops);
  append_double(os, r.loss_pct);
  append_u64(os, r.timeouts);
  append_u64(os, r.fast_retransmits);
  append_u64(os, r.dupacks);
  append_u64(os, r.retransmits);
  append_u64(os, r.data_pkts_sent);
  append_double(os, r.timeout_dupack_ratio);
  append_double(os, r.fairness);
  append_u64(os, r.delay.count());
  append_double(os, r.delay.mean());
  append_double(os, r.delay.m2());
  append_double(os, r.delay.min());
  append_double(os, r.delay.max());
  append_u64(os, r.routing_errors);
  // sim_events / peak_pending are intentionally NOT part of this hash:
  // they are pinned separately (expected_events / expected_peak below),
  // so event-count-only changes are distinguishable from timing changes.
  for (const TraceSeries& t : cwnd) {
    os << t.name() << ';';
    for (const auto& [time, value] : t.points()) {
      append_double(os, time);
      append_double(os, value);
    }
  }
  return os.str();
}

std::string result_hash(const std::string& canonical) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(canonical)));
  return buf;
}

Scenario pinned(int clients, Transport t, GatewayQueue q) {
  Scenario s = Scenario::paper_default();
  s.num_clients = clients;
  s.transport = t;
  s.gateway = q;
  s.duration = 6.0;
  s.warmup = 1.0;
  s.seed = 7;
  return s;
}

struct Pin {
  const char* label;
  Scenario scenario;
  std::vector<int> traced_clients;  // cwnd series hashed after the metrics
  const char* expected_hash;      // packet-timing metrics, counters excluded
  std::uint64_t expected_events;  // sim_events (scheduler events executed)
  std::uint64_t expected_peak;    // peak_pending (event-heap high-water mark)
};

std::vector<Pin> pins() {
  std::vector<Pin> p;
  // Event counts dropped ~18-35% (and peaks shifted by a few slots) when
  // link delivery was fused to one event per transmitted packet and the
  // RTO/delayed-ACK timers went lazy; the metrics hashes were unchanged
  // across that transition (packet timing is bit-identical, see
  // DESIGN.md §6).
  p.push_back({"reno_droptail_n20", pinned(20, Transport::kReno,
                                           GatewayQueue::kDropTail),
               {}, "7023dcc814884fc6", 70740, 315});
  p.push_back({"reno_red_n50",
               pinned(50, Transport::kReno, GatewayQueue::kRed), {},
               "ae668179a97df5a0", 121755, 432});
  p.push_back({"vegas_droptail_n30",
               pinned(30, Transport::kVegas, GatewayQueue::kDropTail), {},
               "e8812cbed9161a44", 109421, 395});
  p.push_back({"udp_droptail_n25",
               pinned(25, Transport::kUdp, GatewayQueue::kDropTail), {},
               "09f22cb5ab59cf30", 56023, 164});
  // An event trace with two clients' cwnd series read from it; tracing
  // adds no events, so the counters are the untraced run's.
  Pin traced{"reno_delack_n45_traced",
             pinned(45, Transport::kReno, GatewayQueue::kDropTail), {0, 9},
             "bfb10609129ae0e7", 118305, 396};
  traced.scenario.delayed_ack = true;
  p.push_back(traced);
  return p;
}

// Runs @p pin, traced when it names clients, and returns its result and
// its canonical text.
std::pair<ExperimentResult, std::string> run_pin(const Pin& pin) {
  TraceSink sink;
  ExperimentOptions opts;
  if (!pin.traced_clients.empty()) opts.trace = &sink;
  ExperimentResult r = run_experiment(pin.scenario, opts);
  const auto cwnd = client_cwnd_series(sink, pin.traced_clients);
  EXPECT_TRUE(cwnd.has_value()) << pin.label << ": the trace ring overflowed";
  std::string text =
      canonical_metrics(r, cwnd ? *cwnd : std::vector<TraceSeries>{});
  return {std::move(r), std::move(text)};
}

TEST(ResultIdentity, PinnedScenariosAreByteIdentical) {
  for (const Pin& pin : pins()) {
    const auto [r, text] = run_pin(pin);
    EXPECT_EQ(result_hash(text), pin.expected_hash)
        << pin.label << ": metrics changed bit-for-bit. If intentional, "
        << "re-pin with the hash above and document why.";
    EXPECT_EQ(r.sim_events, pin.expected_events)
        << pin.label << ": scheduler executed a different number of events. "
        << "Expected after an intentional event-count change (fusion, timer "
        << "laziness); update the pin and document the delta.";
    EXPECT_EQ(r.peak_pending, pin.expected_peak)
        << pin.label << ": event-heap high-water mark changed. Update the "
        << "pin if the hot-path change intentionally reshapes event "
        << "lifetimes.";
  }
}

// Running the same pinned scenario twice in one process must also agree —
// this separates "scheduler nondeterminism" from "pin needs updating".
TEST(ResultIdentity, RerunInProcessIsByteIdentical) {
  const Pin pin = pins()[1];  // Reno/RED: the most event-churn-heavy pin
  EXPECT_EQ(run_pin(pin).second, run_pin(pin).second);
}

}  // namespace
}  // namespace burst
