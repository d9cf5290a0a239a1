// TCP sender framework (packet-granularity, ns-2 style).
//
// Windows, sequence numbers and thresholds are all in units of packets,
// matching the simulator used by the paper. The application pushes
// packets into an *unbounded* send buffer independently of the congestion
// window (Sec 3.2.1 of the paper relies on this backlog: slow-start bursts
// happen because buffered data drains a full window per ACK).
//
// The base class implements sequencing, the retransmission timer
// (Jacobson/Karels + Karn), duplicate-ACK accounting and loss recovery
// plumbing; concrete congestion-control policies (Tahoe, Reno, NewReno,
// Vegas) override the window-adjustment hooks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string_view>

#include "src/transport/agent.hpp"
#include "src/transport/rto_estimator.hpp"
#include "src/transport/send_time_ring.hpp"
#include "src/sim/timer.hpp"

namespace burst {

/// Every connection starts in slow start from a one-packet window.
inline constexpr double kInitialCwnd = 1.0;
/// Duplicate ACKs that signal a loss (fast retransmit).
inline constexpr int kDupAckThreshold = 3;

struct TcpConfig {
  int payload_bytes = kDefaultPayloadBytes;
  double advertised_window = 20.0;  // receiver window, packets (Table 1)
  double initial_ssthresh = 1e9;    // effectively "until the first loss"
  bool ecn = false;                 // negotiate ECN-capable transport
  /// RFC 3042 limited transmit: send one new segment on each of the first
  /// two duplicate ACKs (without growing cwnd), so thin flows generate
  /// enough dup ACKs to reach fast retransmit instead of timing out.
  bool limited_transmit = false;
  /// RFC 2861-style congestion-window validation: do not grow cwnd while
  /// the flow is not actually using it. The paper's slow-start bursts
  /// (Sec 3.2.1) exist precisely because ns-2-era stacks grow cwnd during
  /// app-limited periods and the banked window releases as a burst; this
  /// switch lets the ablation quantify that mechanism. Off by default
  /// (the paper's TCP did not validate).
  bool cwnd_validation = false;
  RtoConfig rto{};
};

struct TcpSenderStats {
  std::uint64_t app_packets = 0;     // submitted by the application
  std::uint64_t data_pkts_sent = 0;  // transmissions incl. retransmissions
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;        // RTO expirations
  std::uint64_t fast_retransmits = 0;
  std::uint64_t dupacks = 0;         // duplicate ACKs received
  std::uint64_t new_acks = 0;
  std::uint64_t rtt_samples = 0;
  std::uint64_t ecn_echoes = 0;      // ACKs carrying a congestion echo
  std::uint64_t ecn_reductions = 0;  // window cuts taken in response
};

/// A point-in-time snapshot of the sender, emitted at every protocol
/// event. The conformance testkit serializes these into golden traces;
/// anything that reshapes per-event window dynamics shows up as a diff.
struct TcpSenderEvent {
  enum class Kind : std::uint8_t {
    kSend,     // a data segment left the sender (seq, retransmit)
    kNewAck,   // a cumulative ACK advanced snd_una (seq = ack)
    kDupAck,   // a duplicate ACK was processed (seq = snd_una)
    kRto,      // the retransmission timer fired (seq = snd_una)
    kEcnEcho,  // an ECN congestion echo triggered a window cut
  };
  Kind kind;
  Time time = 0.0;
  std::int64_t seq = 0;     // see Kind
  bool retransmit = false;  // kSend: segment carried the Karn taint flag
  // Post-event sender state (policy hooks have already run).
  double cwnd = 0.0;
  double ssthresh = 0.0;
  std::int64_t snd_una = 0;
  std::int64_t snd_nxt = 0;
  std::int64_t flight = 0;
  int dupacks = 0;
  std::uint64_t rtt_samples = 0;  // cumulative clean (Karn-valid) samples
  std::string_view state;         // policy-reported phase (cc_state())
};

/// Receives every TcpSenderEvent of one sender. Observation must not
/// perturb the simulation; observers only read.
class TcpSenderObserver {
 public:
  virtual ~TcpSenderObserver() = default;
  virtual void on_sender_event(const TcpSenderEvent& e) = 0;
};

class TcpSender : public Agent {
 public:
  TcpSender(Simulator& sim, Node& node, FlowId flow, NodeId peer,
            TcpConfig cfg = {});

  void app_send(int packets) override;
  void handle(const Packet& p) override;

  // --- Introspection --------------------------------------------------
  double cwnd() const { return cwnd_; }
  double ssthresh() const { return ssthresh_; }
  std::int64_t snd_una() const { return sent_.snd_una(); }
  std::int64_t snd_nxt() const { return snd_nxt_; }
  /// One past the highest sequence ever transmitted (>= snd_nxt; they
  /// differ after a go-back-N rewind).
  std::int64_t snd_max() const { return sent_.snd_max(); }
  /// Application packets buffered but not yet transmitted.
  std::int64_t backlog() const { return app_total_ - snd_nxt_; }
  /// Packets in flight (sent, not yet cumulatively acknowledged).
  std::int64_t flight() const { return snd_nxt() - snd_una(); }
  const TcpSenderStats& stats() const { return stats_; }
  const RtoEstimator& rto_estimator() const { return estimator_; }
  const TcpConfig& config() const { return cfg_; }
  /// Bytes of the send-time ring's slots (its heap block).
  std::size_t send_ring_bytes() const {
    return sent_.capacity() * sizeof(Time);
  }

  /// If set, every protocol event (send, ack, dup ack, timeout, ECN echo)
  /// is reported with a post-event state snapshot. Traced runs install a
  /// TransportTracer here, and the conformance testkit its golden-trace
  /// recorder; the hot path pays one null check per event when unset.
  void set_observer(TcpSenderObserver* observer) { observer_ = observer; }

  /// Human-readable congestion-control phase for traces ("slow-start",
  /// "cong-avoid"; policies override to expose recovery/Vegas phases).
  virtual std::string_view cc_state() const {
    return cwnd() < ssthresh() ? "slow-start" : "cong-avoid";
  }

 protected:
  // --- Policy hooks ----------------------------------------------------
  /// A cumulative ACK advanced snd_una by @p acked packets to @p ack_seq.
  virtual void on_new_ack(std::int64_t acked, std::int64_t ack_seq) = 0;
  /// A duplicate ACK arrived (dupacks() holds the current count).
  virtual void on_dup_ack() = 0;
  /// The retransmission timer fired; set the post-timeout window. The base
  /// class has already halved ssthresh and rewound snd_nxt (go-back-N).
  virtual void on_timeout_window() = 0;
  /// A clean (Karn-valid) RTT sample was taken. Vegas feeds on this.
  virtual void on_rtt_sample(Time rtt) { (void)rtt; }
  /// An ACK echoed an ECN congestion mark. The base rate-limits calls to
  /// one per RTT; the default response is a Reno-style halving without
  /// retransmission. Vegas overrides with its gentler 3/4 cut.
  virtual void on_ecn_echo();

  // --- Services for subclasses -----------------------------------------
  /// Updates cwnd (floored at 1 packet).
  void set_cwnd(double v) { cwnd_ = std::max(1.0, v); }
  void set_ssthresh(double v) { ssthresh_ = v; }
  /// Standard slow-start / congestion-avoidance growth on a new ACK,
  /// honoring cwnd_validation. Used by the Reno-family policies.
  void standard_growth();
  /// True if the current flight (nearly) fills the effective window.
  bool window_limited() const;
  /// Retransmits the first unacknowledged packet (fast retransmit).
  void retransmit_una();
  /// Transmits an arbitrary sequence (a retransmission if already sent).
  /// SACK recovery uses this to fill reported holes directly.
  void send_segment(std::int64_t seq);
  /// Transmits the next unsent application packet, if any.
  bool send_new_segment();
  /// Policy hook invoked with the raw ACK before any other processing,
  /// so extensions (SACK) can read their option blocks.
  virtual void on_ack_info(const Packet& p) { (void)p; }
  /// Restarts the retransmission timer with the current RTO.
  void restart_rto_timer();
  int dupacks() const { return dupacks_; }
  /// Time the given outstanding sequence was (last) transmitted. Defined
  /// for outstanding sequences (>= snd_una); acknowledged sequences have
  /// been forgotten and report kTimeNever.
  Time sent_at(std::int64_t seq) const { return sent_.sent_at(seq); }
  /// Sends as much buffered data as the window permits.
  void try_send();
  /// Rewinds snd_nxt to snd_una (go-back-N; Tahoe uses this on loss).
  void rewind_to_una() { snd_nxt_ = snd_una(); }
  Time now() const { return sim_.now(); }

  TcpSenderStats stats_;

 private:
  void on_rto();
  void send_seq(std::int64_t seq);
  double effective_window() const;
  /// Reports a post-event snapshot to the observer, if any.
  void notify(TcpSenderEvent::Kind kind, std::int64_t seq, bool retransmit);

  TcpConfig cfg_;
  double cwnd_ = kInitialCwnd;
  double ssthresh_;
  std::int64_t snd_nxt_ = 0;
  std::int64_t app_total_ = 0;  // packets the application has submitted
  int dupacks_ = 0;
  Time last_ecn_cut_ = -1.0;  // time of the last ECN window cut
  SendTimeRing sent_;  // snd_una, snd_max and the outstanding send times
  RtoEstimator estimator_;
  Timer rto_timer_;

  TcpSenderObserver* observer_ = nullptr;
};

}  // namespace burst
