// A reusable generation barrier for the LP window protocol.
//
// std::barrier exists in C++20, but the LP runtime wants two properties
// the standard one does not give us together: (a) a measured wait — the
// per-LP profile table reports barrier time separately from event
// processing, so arrive_and_wait() returns the seconds this thread spent
// blocked — and (b) a plain mutex/condvar implementation whose
// happens-before edges ThreadSanitizer reasons about exactly. The
// runtime's cross-LP outboxes rely on (b): each is touched by one side
// at a time (its producer appends while running a window, its consumer
// empties it while merging), with ownership handed across at barrier
// crossings, so the barrier's lock is the only synchronization they need.
//
// Window counts are small (one window per lookahead interval of simulated
// time — hundreds per run, not millions), so a blocking barrier costs
// nothing measurable; there is deliberately no spin phase to burn a core
// that a neighbour LP could be using.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace burst {

class PhaseBarrier {
 public:
  explicit PhaseBarrier(int parties) : parties_(parties) {}
  PhaseBarrier(const PhaseBarrier&) = delete;
  PhaseBarrier& operator=(const PhaseBarrier&) = delete;

  /// Blocks until all parties have arrived; returns the wall seconds this
  /// thread spent waiting (0 for the last arriver, who releases the rest).
  double arrive_and_wait() {
    std::unique_lock<std::mutex> lk(mu_);
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      return 0.0;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t gen = generation_;
    cv_.wait(lk, [&] { return generation_ != gen; });
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  }

  int parties() const { return parties_; }

 private:
  const int parties_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace burst
