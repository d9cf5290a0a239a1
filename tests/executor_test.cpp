#include "src/run/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace burst {
namespace {

TEST(Executor, RunsEveryTaskExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  run_tasks(hits.size(), 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Executor, SingleThreadWorks) {
  std::vector<int> out(64, 0);
  run_tasks(out.size(), 1,
            [&](std::size_t i) { out[i] = static_cast<int>(i); });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
}

TEST(Executor, ZeroTasksIsANoOp) {
  bool ran = false;
  run_tasks(0, 2, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(Executor, NeverStartsMoreThreadsThanAsked) {
  // (threads, tasks): fewer tasks than threads, more, equal, and the
  // 0-threads-means-one rule.
  for (const auto& [threads, tasks] :
       std::vector<std::pair<unsigned, std::size_t>>{
           {4, 2}, {2, 100}, {3, 3}, {1, 50}, {0, 10}}) {
    std::mutex mu;
    std::set<std::thread::id> ids;
    run_tasks(tasks, threads, [&](std::size_t) {
      std::lock_guard<std::mutex> lk(mu);
      ids.insert(std::this_thread::get_id());
    });
    EXPECT_GE(ids.size(), 1u);
    EXPECT_LE(ids.size(), std::min<std::size_t>(std::max(1u, threads), tasks))
        << threads << " threads, " << tasks << " tasks";
  }
}

TEST(Executor, ProgressReachesTotalAndIsMonotone) {
  std::size_t last_done = 0;
  std::size_t calls = 0;
  bool monotone = true;
  run_tasks(
      200, 4, [](std::size_t) {},
      [&](const ExecutorProgress& p) {
        // Serialized by contract, so plain variables are fine here.
        if (p.done <= last_done) monotone = false;
        last_done = p.done;
        ++calls;
        EXPECT_EQ(p.total, 200u);
        EXPECT_GE(p.elapsed_s, 0.0);
        EXPECT_GE(p.eta_s, 0.0);
      });
  EXPECT_TRUE(monotone);
  EXPECT_EQ(calls, 200u);
  EXPECT_EQ(last_done, 200u);
}

TEST(Executor, FirstTaskExceptionIsRethrown) {
  std::atomic<int> executed{0};
  EXPECT_THROW(run_tasks(100, 4,
                         [&](std::size_t i) {
                           executed.fetch_add(1);
                           if (i == 13) throw std::runtime_error("boom");
                         }),
               std::runtime_error);
  // A throwing task neither hangs the call nor skips the others.
  EXPECT_EQ(executed.load(), 100);
}

}  // namespace
}  // namespace burst
