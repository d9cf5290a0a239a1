// Multi-handle / multi-process behavior of ResultStore: the guarantees
// the campaign farm stands on. Handles here are separate ResultStore
// objects on one directory — exactly what two worker processes (or two
// threads that refuse to share) look like to the filesystem.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "src/run/result_store.hpp"

namespace burst {
namespace {

namespace fs = std::filesystem;
using std::chrono_literals::operator""ms;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

ScenarioKey key_for(std::uint64_t seed) {
  Scenario sc = Scenario::paper_default();
  sc.seed = seed;
  return scenario_key(sc);
}

ExperimentResult result_stamped(std::uint64_t stamp) {
  ExperimentResult r;
  r.delivered = stamp;
  r.app_generated = stamp * 2;
  r.cov = 1.0 + static_cast<double>(stamp) / 7.0;
  for (double d : {0.01, 0.02, 0.04}) r.delay.add(d);
  return r;
}

/// True while @p claim has not returned.
bool still_waiting(const std::future<bool>& claim) {
  return claim.wait_for(100ms) == std::future_status::timeout;
}

TEST(StoreConcurrency, RacingHandlesLoseNoEntries) {
  const std::string dir = fresh_dir("conc_race");
  constexpr int kPerWorker = 24;
  // Two workers, each with its own handle, interleaving claim+publish on
  // the same directory. flock serializes the appends; nothing may vanish.
  const auto worker = [&](int base) {
    ResultStore store(dir);
    for (int i = 0; i < kPerWorker; ++i) {
      const std::uint64_t stamp =
          static_cast<std::uint64_t>(base + i);
      ASSERT_TRUE(store.claim(key_for(stamp)));
      store.publish(key_for(stamp), result_stamped(stamp));
    }
  };
  std::thread a(worker, 1000);
  std::thread b(worker, 2000);
  a.join();
  b.join();
  ResultStore check(dir);
  EXPECT_EQ(check.size(), 2u * kPerWorker);
  EXPECT_EQ(check.skipped_entries(), 0u);
  for (int base : {1000, 2000}) {
    for (int i = 0; i < kPerWorker; ++i) {
      const std::uint64_t stamp = static_cast<std::uint64_t>(base + i);
      const auto got = check.get(key_for(stamp));
      ASSERT_TRUE(got.has_value()) << "lost entry " << stamp;
      EXPECT_EQ(got->delivered, stamp);
    }
  }
  EXPECT_TRUE(fs::is_empty(dir + "/claims"));  // every claim file went
}

TEST(StoreConcurrency, ClaimAbsorbsOtherHandlesAppends) {
  const std::string dir = fresh_dir("conc_refresh");
  ResultStore reader(dir);
  const ScenarioKey key = key_for(7);
  EXPECT_FALSE(reader.get(key).has_value());
  {
    ResultStore writer(dir);
    writer.publish(key, result_stamped(7));
  }
  EXPECT_FALSE(reader.get(key).has_value());  // not yet absorbed
  EXPECT_FALSE(reader.claim(key));  // stored: claim() reads it in first
  ASSERT_TRUE(reader.get(key).has_value());
  EXPECT_EQ(reader.get(key)->delivered, 7u);
}

TEST(StoreConcurrency, ClaimProtocolHandsOneOwnerPerKey) {
  const std::string dir = fresh_dir("conc_claim");
  ResultStore a(dir);
  ResultStore b(dir);
  const ScenarioKey key = key_for(42);

  ASSERT_TRUE(a.claim(key));
  // Same pid, different handle: the claim is held, so B waits.
  auto waiter = std::async(std::launch::async, [&] { return b.claim(key); });
  EXPECT_TRUE(still_waiting(waiter));

  a.publish(key, result_stamped(42));
  EXPECT_FALSE(waiter.get());  // stored while it waited: read, not run
  EXPECT_FALSE(fs::exists(a.claim_path(key)));  // claim released
  EXPECT_EQ(b.get(key)->delivered, 42u);
}

TEST(StoreConcurrency, ClosingAHandleReleasesItsClaims) {
  const std::string dir = fresh_dir("conc_close");
  auto a = std::make_unique<ResultStore>(dir);
  ResultStore b(dir);
  const ScenarioKey key = key_for(9);
  ASSERT_TRUE(a->claim(key));
  auto waiter = std::async(std::launch::async, [&] { return b.claim(key); });
  EXPECT_TRUE(still_waiting(waiter));
  a.reset();  // destroyed unpublished
  EXPECT_TRUE(waiter.get());
  EXPECT_FALSE(b.get(key).has_value());
  // Closed, not unlinked: B holds the very file A held.
  EXPECT_TRUE(fs::exists(b.claim_path(key)));
}

TEST(StoreConcurrency, ReleasedClaimGoesToExactlyOneWaiter) {
  const std::string dir = fresh_dir("conc_one_waiter");
  const ScenarioKey key = key_for(33);
  auto holder = std::make_unique<ResultStore>(dir);
  ASSERT_TRUE(holder->claim(key));
  // Two threads on one handle, as a campaign's threads share theirs.
  ResultStore waiters(dir);
  const auto claim_and_publish = [&] {
    if (!waiters.claim(key)) return false;
    waiters.publish(key, result_stamped(33));
    return true;
  };
  auto first = std::async(std::launch::async, claim_and_publish);
  auto second = std::async(std::launch::async, claim_and_publish);
  EXPECT_TRUE(still_waiting(first));
  EXPECT_TRUE(still_waiting(second));
  holder.reset();  // destroyed unpublished
  const bool first_won = first.get();
  const bool second_won = second.get();
  EXPECT_NE(first_won, second_won);  // one simulates, the other reads
  EXPECT_EQ(waiters.get(key)->delivered, 33u);
  EXPECT_FALSE(fs::exists(waiters.claim_path(key)));
}

TEST(StoreConcurrency, ReleaseHandsTheKeyOnAndKeepsTheFile) {
  const std::string dir = fresh_dir("conc_release");
  ResultStore a(dir);
  ResultStore b(dir);
  const ScenarioKey key = key_for(17);
  ASSERT_TRUE(a.claim(key));
  auto waiter = std::async(std::launch::async, [&] { return b.claim(key); });
  EXPECT_TRUE(still_waiting(waiter));
  a.release(key);  // a failed simulation: nothing to publish
  EXPECT_TRUE(waiter.get());
  EXPECT_TRUE(fs::exists(b.claim_path(key)));
  b.publish(key, result_stamped(17));
  EXPECT_FALSE(fs::exists(b.claim_path(key)));
  EXPECT_FALSE(a.claim(key));  // stored now
}

TEST(StoreConcurrency, FailedPublishKeepsTheClaimFile) {
  const std::string dir = fresh_dir("conc_failed_publish");
  ResultStore a(dir);
  const ScenarioKey key = key_for(5);
  // A directory where the key's segment belongs: the append fails.
  fs::create_directories(a.segment_path(key));
  ASSERT_TRUE(a.claim(key));
  a.publish(key, result_stamped(5));
  // Not stored, so the file stays and the next worker locks that inode.
  EXPECT_TRUE(fs::exists(a.claim_path(key)));
  ResultStore b(dir);
  EXPECT_TRUE(b.claim(key));
}

TEST(StoreConcurrency, ClaimWaitsForALiveProcess) {
  const std::string dir = fresh_dir("conc_live");
  const ScenarioKey key = key_for(21);
  int claimed[2];  // child -> parent: "I hold the claim"
  int go[2];       // parent -> child: "exit now"
  ASSERT_EQ(::pipe(claimed), 0);
  ASSERT_EQ(::pipe(go), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(claimed[0]);
    ::close(go[1]);
    ResultStore worker(dir);
    const char held = worker.claim(key) ? 'y' : 'n';
    char c = 0;
    if (::write(claimed[1], &held, 1) != 1 || ::read(go[0], &c, 1) < 0) {
      ::_exit(1);
    }
    ::_exit(0);  // no publish, no release: the kernel drops the lock
  }
  ::close(claimed[1]);
  ::close(go[0]);
  char held = 0;
  ASSERT_EQ(::read(claimed[0], &held, 1), 1);
  EXPECT_EQ(held, 'y');

  ResultStore survivor(dir);
  auto waiter =
      std::async(std::launch::async, [&] { return survivor.claim(key); });
  EXPECT_TRUE(still_waiting(waiter));  // the owner is alive
  ASSERT_EQ(::write(go[1], "x", 1), 1);
  EXPECT_TRUE(waiter.get());  // its exit freed the point
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ::close(claimed[0]);
  ::close(go[1]);
}

TEST(StoreConcurrency, DeadWorkersClaimIsFreeAtOnce) {
  const std::string dir = fresh_dir("conc_dead");
  const ScenarioKey key = key_for(13);
  // A worker process claims the key and dies without publishing — the
  // kill-one-worker-mid-campaign scenario.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ResultStore worker(dir);
    ::_exit(worker.claim(key) ? 0 : 1);  // no publish: the file stays
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  ResultStore survivor(dir);
  const std::string path = survivor.claim_path(key);
  ASSERT_TRUE(fs::exists(path));
  EXPECT_EQ(fs::file_size(path), 0u);  // a lock, not a pid
  // Nobody holds the lock any more, so the survivor owns the point at
  // once and picks up exactly this unfinished work.
  EXPECT_TRUE(survivor.claim(key));
  survivor.publish(key, result_stamped(13));
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(survivor.claim(key));
}

TEST(StoreConcurrency, TornTailIsToleratedAndHealed) {
  const std::string dir = fresh_dir("conc_torn");
  const ScenarioKey k1 = key_for(1);
  std::string segment;
  {
    ResultStore store(dir);
    store.publish(k1, result_stamped(1));
    segment = store.segment_path(k1);
  }
  // A crashed writer left half a line with no newline at the tail.
  {
    std::ofstream out(segment, std::ios::app);
    out << "{\"key\":\"00000000000000000000000000";  // torn, no '\n'
  }
  // Find a second key living in the same segment, so the next append
  // exercises the newline-heal on exactly this file.
  std::uint64_t seed = 100;
  while (ResultStore::segment_of(key_for(seed)) !=
         ResultStore::segment_of(k1)) {
    ++seed;
  }
  const ScenarioKey k2 = key_for(seed);
  {
    ResultStore store(dir);
    EXPECT_EQ(store.get(k1)->delivered, 1u);  // torn tail didn't poison k1
    store.publish(k2, result_stamped(seed));  // heals: newline first
  }
  ResultStore check(dir);
  EXPECT_EQ(check.size(), 2u);
  EXPECT_EQ(check.get(k1)->delivered, 1u);
  EXPECT_EQ(check.get(k2)->delivered, seed);
  EXPECT_EQ(check.skipped_entries(), 1u);  // the torn line, now whole+bogus
}

}  // namespace
}  // namespace burst
