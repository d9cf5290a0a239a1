// Hot-path wall-clock profiling: RAII scopes that attribute elapsed time
// to coarse phases (scheduler dispatch vs transport vs queue discipline).
//
// A Profiler is installed per thread (thread_local pointer); ProfileScope
// reads that pointer and is a no-op — one TLS load and a predictable
// branch — when none is installed, so the scopes stay compiled into the
// per-event hot path without moving the packet-path CI gate. Attribution
// is *self time*: entering a nested scope charges the elapsed slice to
// the enclosing phase first, so dispatch = loop overhead only, not
// everything under it.
//
// Consumers: bench/packet_path's fig02 profiled row and burstcamp
// --profile (one Profiler per task, merged into per-phase totals).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string_view>

namespace burst {

enum class ProfilePhase : std::uint8_t {
  kOther = 0,   // outside any instrumented region
  kDispatch,    // scheduler loop: heap pop + event invoke overhead
  kTransport,   // transport-agent packet handling (Node local delivery)
  kQueue,       // queue-discipline enqueue (accept/drop) decisions
};
inline constexpr std::size_t kProfilePhases = 4;

std::string_view to_string(ProfilePhase p);

class Profiler {
 public:
  Profiler() { reset(); }

  /// Installs @p p as the calling thread's active profiler (nullptr
  /// uninstalls); returns the previous one so callers can restore it.
  static Profiler* install(Profiler* p) {
    Profiler* prev = current_;
    if ((p != nullptr) != (prev != nullptr)) {
      active_count_.fetch_add(p != nullptr ? 1 : -1,
                              std::memory_order_relaxed);
    }
    current_ = p;
    if (p) p->last_ = clock_ns();
    return prev;
  }
  static Profiler* current() { return current_; }

  /// True when ANY thread has a profiler installed. ProfileScope's
  /// fast path reads this plain global before touching thread-local
  /// state, so a fully unprofiled process (the normal case, and the one
  /// the packet-path gate times) pays one predictable shared-read branch
  /// per scope and no TLS access.
  static bool any_active() {
    return active_count_.load(std::memory_order_relaxed) != 0;
  }

  void reset() {
    ns_.fill(0);
    phase_ = ProfilePhase::kOther;
    last_ = clock_ns();
  }

  /// Seconds attributed to @p p so far (self time).
  double seconds(ProfilePhase p) const {
    return static_cast<double>(ns_[static_cast<std::size_t>(p)]) * 1e-9;
  }
  double total_seconds() const {
    std::uint64_t t = 0;
    for (const std::uint64_t v : ns_) t += v;
    return static_cast<double>(t) * 1e-9;
  }

  /// Adds @p other's per-phase totals into this profiler (merge step for
  /// per-task profilers).
  void absorb(const Profiler& other) {
    for (std::size_t i = 0; i < ns_.size(); ++i) ns_[i] += other.ns_[i];
  }

  // ProfileScope internals: charge the elapsed slice to the phase that
  // was running, then switch.
  ProfilePhase enter(ProfilePhase p) {
    stamp();
    const ProfilePhase prev = phase_;
    phase_ = p;
    return prev;
  }
  void leave(ProfilePhase prev) {
    stamp();
    phase_ = prev;
  }

 private:
  static std::uint64_t clock_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
  void stamp() {
    const std::uint64_t now = clock_ns();
    ns_[static_cast<std::size_t>(phase_)] += now - last_;
    last_ = now;
  }

  // Inline and constant-initialized, so every access is a plain TLS load.
  // Declared here and defined out of line, other files reach it through a
  // TLS wrapper whose init-function test GCC 12's UBSan misreports as a
  // null-pointer load.
  static inline thread_local Profiler* current_ = nullptr;
  static std::atomic<int> active_count_;  // threads with a profiler
  std::array<std::uint64_t, kProfilePhases> ns_{};
  ProfilePhase phase_ = ProfilePhase::kOther;
  std::uint64_t last_ = 0;
};

/// RAII phase scope. Free when no profiler is installed on this thread
/// (and avoids even the TLS read while no profiler exists process-wide).
class ProfileScope {
 public:
  explicit ProfileScope(ProfilePhase p)
      : prof_(Profiler::any_active() ? Profiler::current() : nullptr) {
    if (prof_) prev_ = prof_->enter(p);
  }
  ~ProfileScope() {
    if (prof_) prof_->leave(prev_);
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  Profiler* prof_;
  ProfilePhase prev_ = ProfilePhase::kOther;
};

}  // namespace burst
