// Scenario: the paper's Table 1 in code, plus the experiment axes
// (transport implementation, gateway discipline, delayed ACKs).
//
// Defaults are the reconstructed Table 1 values; see DESIGN.md §3 for the
// evidence behind each reconstruction.
#pragma once

#include <cstdint>
#include <string>

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

}  // namespace burst
