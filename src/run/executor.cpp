#include "src/run/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace burst {

void run_tasks(std::size_t num_tasks, unsigned threads,
               const std::function<void(std::size_t)>& task,
               const std::function<void(const ExecutorProgress&)>& progress) {
  const auto start = std::chrono::steady_clock::now();
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::size_t done = 0;            // guarded by mu
  std::exception_ptr first_error;  // guarded by mu
  const auto work = [&] {
    for (std::size_t i = next++; i < num_tasks; i = next++) {
      std::exception_ptr error;
      try {
        task(i);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lk(mu);
      if (error && !first_error) first_error = error;
      ++done;
      if (progress) {
        ExecutorProgress p;
        p.done = done;
        p.total = num_tasks;
        p.elapsed_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        p.eta_s = p.elapsed_s * static_cast<double>(p.total - p.done) /
                  static_cast<double>(p.done);
        p.tasks_per_sec = p.elapsed_s > 0.0
                              ? static_cast<double>(p.done) / p.elapsed_s
                              : 0.0;
        progress(p);
      }
    }
  };
  {
    // jthreads join on scope exit, also if starting a later one throws.
    std::vector<std::jthread> pool;
    const std::size_t n =
        std::min<std::size_t>(std::max(1u, threads), num_tasks);
    for (std::size_t t = 0; t < n; ++t) pool.emplace_back(work);
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace burst
