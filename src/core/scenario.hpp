// Scenario: the paper's Table 1 in code, plus the experiment axes
// (transport implementation, gateway discipline, delayed ACKs).
//
// Defaults are the reconstructed Table 1 values; see DESIGN.md §3 for the
// evidence behind each reconstruction.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "src/sim/time.hpp"
#include "src/transport/rto_estimator.hpp"
#include "src/transport/tcp_vegas.hpp"

namespace burst {

enum class Transport { kUdp, kTahoe, kReno, kNewReno, kVegas, kSack };
enum class GatewayQueue { kDropTail, kRed, kDrr };

std::string to_string(Transport t);
std::string to_string(GatewayQueue q);

struct Scenario {
  // --- Experiment axes -------------------------------------------------
  int num_clients = 20;
  Transport transport = Transport::kReno;
  GatewayQueue gateway = GatewayQueue::kDropTail;
  bool delayed_ack = false;
  bool ecn = false;           // ECN-capable TCP + marking RED gateway
  bool adaptive_red = false;  // self-configuring RED (the paper's ref [5])
  bool limited_transmit = false;  // RFC 3042 at the senders
  bool cwnd_validation = false;   // RFC 2861-style growth gating
  /// Mean-field scaling base N0 (0 = off). When set, the capacity-side
  /// parameters — bottleneck bandwidth, gateway buffer, RED thresholds —
  /// scale by num_clients / meanfield_base, so per-flow capacity stays
  /// fixed as N grows: the McDonald–Reynier many-flows limit in which
  /// aggregate fluctuations decay as 1/sqrt(N). The factor is exactly 1.0
  /// at num_clients == meanfield_base, so the scaled scenario at the base
  /// N is bit-identical to the unscaled one.
  int meanfield_base = 0;

  // --- Table 1 ---------------------------------------------------------
  double client_bw_bps = 10e6;        // client link bandwidth (mu_c)
  Time client_delay = ms(20);         // client link delay (tau_c)
  /// Heterogeneous-RTT extension: client i's link delay is spread linearly
  /// over client_delay * [1-spread, 1+spread]. 0 = the paper's homogeneous
  /// setup. Must stay in [0, 1).
  double client_delay_spread = 0.0;
  double bottleneck_bw_bps = 32e6;    // bottleneck bandwidth (mu_s)
  Time bottleneck_delay = ms(20);     // bottleneck delay (tau_s)
  double advertised_window = 20.0;    // TCP max advertised window (packets)
  std::size_t gateway_buffer = 50;    // gateway buffer size B (packets)
  int payload_bytes = 1000;           // packet size
  double mean_interarrival = 0.01;    // average intergeneration time (s)
  Time duration = 20.0;               // total test time
  double red_min_th = 10.0;           // RED minimum threshold
  double red_max_th = 40.0;           // RED maximum threshold
  VegasConfig vegas{};                // alpha=1, beta=3, gamma=1

  // --- Modeling knobs (DESIGN.md §3) ------------------------------------
  double red_weight = 0.002;
  double red_max_p = 0.1;
  RtoConfig rto{};
  Time warmup = 2.0;                  // discarded before c.o.v. binning
  std::size_t client_queue_buffer = 1000;  // edge/reverse-path buffers
  std::uint64_t seed = 1;

  // --- Derived quantities ----------------------------------------------
  /// Round-trip propagation delay — the paper's c.o.v. bin width.
  Time rtt_prop() const { return 2.0 * (client_delay + bottleneck_delay); }
  /// Client @p i's link delay under the heterogeneous-RTT extension.
  Time client_delay_for(int i) const;
  /// Wire size of one data packet.
  int wire_bytes() const;
  /// Bottleneck service rate in data packets per second.
  double bottleneck_pps() const;
  /// Offered application load in packets per second (all clients).
  double offered_pps() const;
  /// Offered load divided by bottleneck capacity.
  double utilization() const { return offered_pps() / bottleneck_pps(); }
  /// Number of clients at which offered load equals capacity (the paper's
  /// 38/39-client crossover).
  double saturation_clients() const;

  /// num_clients / meanfield_base, or 1.0 when mean-field scaling is off.
  double meanfield_factor() const;
  /// Capacity-side parameters after mean-field scaling. With
  /// meanfield_base == 0 these return the raw Table 1 values unchanged
  /// (same bits — no multiply happens), so every historical scenario is
  /// untouched.
  double scaled_bottleneck_bw_bps() const;
  std::size_t scaled_gateway_buffer() const;
  double scaled_red_min_th() const;
  double scaled_red_max_th() const;

  /// The configuration used throughout the paper's Section 3.
  static Scenario paper_default() { return Scenario{}; }

  /// One-line human-readable label, e.g. "Reno/RED N=40".
  std::string label() const;
};

// --- The field list ----------------------------------------------------
// Every field a `.topo`/`.camp` `set` line, a campaign sweep axis or a
// burstsim flag can assign, with its `set` spelling, its cache-key
// spelling and the values it accepts. apply_scenario_field parses `set`
// values, scenario_field_value answers `$field` references,
// canonical_string renders the Scenario part of the cache key and burstsim
// asks is_boolean_scenario_field which flags may go bare, all from this
// one list: adding a Scenario field means adding one entry to
// for_each_scenario_field.

/// Which values a field accepts, and the word its error names:
/// "bad <what> '<value>' for field '<name>'". The member's type fixes the
/// literal syntax (an int takes a whole number, an unsigned field plain
/// decimal digits, a bool true/false/1/0/on/off/yes/no); `unit` adds the
/// rate or time suffixes a real field takes. Numbers must lie in
/// [lo, hi].
struct FieldRule {
  enum class Unit : std::uint8_t { kNone, kRate, kTime };

  /// Closed bounds standing for "> 0" and "< 1".
  static constexpr double kAboveZero =
      std::numeric_limits<double>::denorm_min();
  static constexpr double kBelowOne = 1.0 - 0x1p-53;

  const char* what = "";
  Unit unit = Unit::kNone;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();

  static constexpr FieldRule min(const char* what, double lo,
                                 Unit unit = Unit::kNone) {
    return {what, unit, lo};
  }
  constexpr FieldRule max(double cap) const { return {what, unit, lo, cap}; }
  /// Never true for NaN.
  constexpr bool admits(double v) const { return v >= lo && v <= hi; }
};

/// One entry of the field list.
struct ScenarioField {
  const char* name;  // `set` spelling
  const char* key;   // canonical_string spelling
  FieldRule rule;
  const char* alias = nullptr;  // a second `set` spelling
  /// False: the field stays out of the key while it is zero, so the keys
  /// taken before it existed stay byte-for-byte the same.
  bool keyed_when_zero = true;
  /// What `$name` reads when it is not the raw member: the mean-field
  /// scaled capacity, which is what the generated dumbbell builds with.
  double (*scaled)(const Scenario&) = nullptr;

  bool named(std::string_view s) const {
    return s == name || (alias != nullptr && s == alias);
  }
};

/// Calls @p visit(field, member) for every Scenario field, in cache-key
/// order. @p s is a Scenario or a const Scenario; the member reference
/// has the field's own type, and @p visit takes the field as a
/// `const ScenarioField&`.
template <typename S, typename Visit>
void for_each_scenario_field(S& s, Visit&& visit) {
  using R = FieldRule;
  constexpr auto kRate = FieldRule::Unit::kRate;
  constexpr auto kTime = FieldRule::Unit::kTime;
  constexpr double kAboveZero = FieldRule::kAboveZero;
  constexpr R positive_time = R::min("time", kAboveZero, kTime);
  constexpr R time = R::min("time", 0, kTime);
  // Experiment axes.
  visit({"clients", "num_clients", R::min("client count", 1)}, s.num_clients);
  visit({"transport", "transport", {"transport"}}, s.transport);
  visit({"queue", "gateway", {"queue discipline"}}, s.gateway);
  visit({"delayed_ack", "delayed_ack", {"boolean"}, "delack"}, s.delayed_ack);
  visit({"ecn", "ecn", {"boolean"}}, s.ecn);
  visit({"adaptive_red", "adaptive_red", {"boolean"}}, s.adaptive_red);
  visit({"limited_transmit", "limited_transmit", {"boolean"}},
        s.limited_transmit);
  visit({"cwnd_validation", "cwnd_validation", {"boolean"}},
        s.cwnd_validation);
  visit({"meanfield_base", "meanfield_base", R::min("base client count", 0),
         nullptr, false},
        s.meanfield_base);
  // Table 1.
  visit({"client_bw", "client_bw_bps", R::min("rate", kAboveZero, kRate)},
        s.client_bw_bps);
  visit({"client_delay", "client_delay", time}, s.client_delay);
  visit({"client_delay_spread", "client_delay_spread",
         R::min("spread (need [0,1))", 0).max(R::kBelowOne)},
        s.client_delay_spread);
  visit({"bottleneck_bw", "bottleneck_bw_bps",
         R::min("rate", kAboveZero, kRate), nullptr, true,
         [](const Scenario& sc) { return sc.scaled_bottleneck_bw_bps(); }},
        s.bottleneck_bw_bps);
  visit({"bottleneck_delay", "bottleneck_delay", time}, s.bottleneck_delay);
  visit({"advertised_window", "advertised_window",
         R::min("window", kAboveZero)},
        s.advertised_window);
  visit({"gateway_buffer", "gateway_buffer", R::min("buffer size", 1),
         nullptr, true,
         [](const Scenario& sc) {
           return static_cast<double>(sc.scaled_gateway_buffer());
         }},
        s.gateway_buffer);
  visit({"payload_bytes", "payload_bytes", R::min("byte count", 1)},
        s.payload_bytes);
  visit({"mean_interarrival", "mean_interarrival", positive_time},
        s.mean_interarrival);
  visit({"duration", "duration", positive_time}, s.duration);
  visit({"red_min", "red_min_th", R::min("threshold", 0), nullptr, true,
         [](const Scenario& sc) { return sc.scaled_red_min_th(); }},
        s.red_min_th);
  visit({"red_max", "red_max_th", R::min("threshold", kAboveZero), nullptr,
         true, [](const Scenario& sc) { return sc.scaled_red_max_th(); }},
        s.red_max_th);
  visit({"vegas_alpha", "vegas_alpha", {"number"}}, s.vegas.alpha);
  visit({"vegas_beta", "vegas_beta", {"number"}}, s.vegas.beta);
  visit({"vegas_gamma", "vegas_gamma", {"number"}}, s.vegas.gamma);
  // Modeling knobs.
  visit({"red_weight", "red_weight", R::min("weight", kAboveZero).max(1)},
        s.red_weight);
  visit({"red_maxp", "red_max_p", R::min("probability", kAboveZero).max(1)},
        s.red_max_p);
  visit({"rto_granularity", "rto_granularity", time}, s.rto.granularity);
  visit({"rto_min", "rto_min", positive_time}, s.rto.min_rto);
  visit({"rto_max", "rto_max", positive_time}, s.rto.max_rto);
  visit({"rto_initial", "rto_initial", positive_time}, s.rto.initial_rto);
  visit({"warmup", "warmup", time}, s.warmup);
  visit({"client_queue_buffer", "client_queue_buffer",
         R::min("buffer size", 1)},
        s.client_queue_buffer);
  visit({"seed", "seed", {"seed"}}, s.seed);
}

/// Applies one `set`-style assignment to a Scenario (the campaign layer's
/// sweep axes and burstsim's flags land here too). Returns false with
/// *msg set on an unknown field or a malformed value.
bool apply_scenario_field(Scenario* sc, const std::string& field,
                          const std::string& value, std::string* msg);

/// The value `$name` substitutes in a `.topo` file: a numeric field's
/// current value, mean-field scaled where the field says so. False for
/// unknown and non-numeric fields.
bool scenario_field_value(const Scenario& sc, std::string_view name,
                          double* out);

/// True iff @p name is a `set` spelling of a boolean field.
bool is_boolean_scenario_field(std::string_view name);

// Literal readers shared by `set` values and `.topo` tokens. Each parses
// all of @p text. Rate suffixes bps/kbps/Mbps/Gbps and time suffixes
// s/ms/us use the same arithmetic as src/sim/time.hpp's helpers (`20ms`
// is 20 * 1e-3, bit-identical to ms(20)); a bare number is bits per
// second or seconds.
bool parse_number(const std::string& text, double* out);
bool parse_rate(const std::string& text, double* out);
bool parse_time(const std::string& text, double* out);
bool parse_transport(const std::string& text, Transport* out);

/// True iff @p d is a whole number in [@p lo, INT_MAX]. Checked before
/// any cast to int: an out-of-range cast is undefined behaviour.
bool whole_int(double d, double lo);

}  // namespace burst
