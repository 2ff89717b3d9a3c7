// The hardened result store: single-flight locking (contention, read
// through, stale steal), the LRU byte budget with stale-schema age-out,
// checked summary reads, and verify().

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "io/vfs.h"
#include "obs/metrics.h"
#include "scenario/result_store.h"
#include "scenario/runner.h"

namespace cloudrepro::scenario {
namespace {

namespace fs = std::filesystem;

ScenarioSpec tiny_spec() {
  ScenarioSpec spec;
  spec.name = "robustness-test";
  spec.workloads = {{"hibench", "TS", std::nullopt}};
  spec.budgets = {5000.0};
  spec.repetitions = 3;
  return spec;
}

class StoreRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path{::testing::TempDir()} /
            ("cloudrepro-robust-" +
             std::string{::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()});
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  void write_raw(const fs::path& path, const std::string& bytes) {
    auto& vfs = io::real_vfs();
    vfs.create_directories(path.parent_path());
    auto out = vfs.open_write(path, io::WriteMode::kTruncate);
    out->append(bytes);
    out->close();
  }

  fs::path root_;
};

TEST_F(StoreRobustnessTest, LockIsExclusivePerEntryAndReleases) {
  obs::MetricsRegistry metrics;
  ResultStore store{root_, &metrics};
  const auto spec = tiny_spec();

  auto lock = store.try_lock(spec, 1);
  ASSERT_TRUE(lock);
  // A live same-process holder: contention, not a steal.
  EXPECT_FALSE(store.try_lock(spec, 1));
  EXPECT_EQ(metrics.counter_value("scenario.cache.lock_contention"), 1.0);
  // A different entry is an independent lock.
  EXPECT_TRUE(store.try_lock(spec, 2));

  lock.release();
  EXPECT_TRUE(store.try_lock(spec, 1));
  EXPECT_EQ(metrics.counter_value("scenario.cache.lock_stolen"), 0.0);
}

TEST_F(StoreRobustnessTest, StaleLockFromDeadProcessIsStolen) {
  obs::MetricsRegistry metrics;
  ResultStore store{root_, &metrics};
  const auto spec = tiny_spec();

  // Pid 4194305 exceeds the default Linux pid_max (4194304): provably dead.
  write_raw(store.entry_dir(spec, 1) / "lock", "pid 4194305\n");
  EXPECT_TRUE(store.try_lock(spec, 1));
  EXPECT_EQ(metrics.counter_value("scenario.cache.lock_stolen"), 1.0);

  // A garbage lock file can only come from a torn lock write: also stolen.
  write_raw(store.entry_dir(spec, 2) / "lock", "????");
  EXPECT_TRUE(store.try_lock(spec, 2));

  // Our own pid, but not registered as held by this incarnation — the
  // crash-restart-in-one-process shape the torture harness produces.
  write_raw(store.entry_dir(spec, 3) / "lock",
            "pid " + std::to_string(::getpid()) + "\n");
  EXPECT_TRUE(store.try_lock(spec, 3));
}

TEST_F(StoreRobustnessTest, ConcurrentRunsExecuteTheCampaignExactlyOnce) {
  obs::MetricsRegistry metrics;
  ResultStore store{root_, &metrics};
  const auto spec = tiny_spec();

  const auto run = [&] {
    RunOptions options;
    options.store = &store;
    options.metrics = &metrics;
    options.lock_wait_ms = 5;
    options.lock_wait_attempts = 2000;
    return run_scenario(spec, options);
  };

  ScenarioRunResult a, b;
  std::thread ta{[&] { a = run(); }};
  std::thread tb{[&] { b = run(); }};
  ta.join();
  tb.join();

  // Both produced the same bytes, and the 3 measurements ran exactly once
  // across both runners: the single-flight guarantee.
  EXPECT_EQ(a.summary, b.summary);
  EXPECT_TRUE(a.complete);
  EXPECT_TRUE(b.complete);
  EXPECT_EQ(a.executed_measurements + b.executed_measurements, 3u);
  EXPECT_EQ(metrics.counter_value("campaign.measurements_executed"), 3.0);
  // The loser either read through the published summary or found the
  // complete entry right after the handover.
  EXPECT_EQ(a.from_cached_summary + b.from_cached_summary, 1);
}

TEST_F(StoreRobustnessTest, WaiterReadsThroughTheHoldersPublishedSummary) {
  obs::MetricsRegistry metrics;
  ResultStore store{root_, &metrics};
  const auto spec = tiny_spec();

  // Reference summary from a store-less run (same spec, same seed).
  const auto reference = run_scenario(spec);

  auto holder = store.try_lock(spec, spec.seed);
  ASSERT_TRUE(holder);

  ScenarioRunResult waited;
  std::thread waiter{[&] {
    RunOptions options;
    options.store = &store;
    options.lock_wait_ms = 5;
    options.lock_wait_attempts = 2000;
    waited = run_scenario(spec, options);
  }};

  // "The other process" publishes, then releases its lock.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  store.write_summary(spec, spec.seed, reference.summary);
  holder.release();
  waiter.join();

  EXPECT_TRUE(waited.from_cached_summary);
  EXPECT_EQ(waited.summary, reference.summary);
  EXPECT_EQ(waited.executed_measurements, 0u);
  EXPECT_GT(metrics.counter_value("scenario.cache.lock_wait"), 0.0);
}

TEST_F(StoreRobustnessTest, WaiterEvictsCorruptWinnerSummaryAndRetries) {
  // Regression: the read-through path must VALIDATE the winner's summary.
  // A waiter that wakes to a torn summary.json (winner crashed mid-write,
  // torn by fault injection, etc.) must evict it and run the campaign
  // itself — never serve the torn bytes, never deadlock.
  obs::MetricsRegistry metrics;
  ResultStore store{root_, &metrics};
  const auto spec = tiny_spec();
  const auto reference = run_scenario(spec);

  auto holder = store.try_lock(spec, spec.seed);
  ASSERT_TRUE(holder);

  ScenarioRunResult waited;
  std::thread waiter{[&] {
    RunOptions options;
    options.store = &store;
    options.metrics = &metrics;
    options.lock_wait_ms = 5;
    options.lock_wait_attempts = 2000;
    waited = run_scenario(spec, options);
  }};

  // "The winner" publishes a torn summary, then releases its lock — the
  // worst interleaving: the waiter sees has_summary() true, reads, and the
  // bytes are garbage.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  write_raw(store.summary_path(spec, spec.seed), "{\"complete\":tru");
  holder.release();
  waiter.join();

  EXPECT_TRUE(waited.complete);
  EXPECT_FALSE(waited.from_cached_summary)
      << "the torn summary must not be served";
  EXPECT_EQ(waited.summary, reference.summary);
  EXPECT_GE(metrics.counter_value("scenario.cache.corrupt_summaries"), 1.0);
  // The re-run republished a valid summary over the torn one.
  EXPECT_EQ(store.read_summary_checked(spec, spec.seed), reference.summary);
}

TEST_F(StoreRobustnessTest, TouchFreshensTheClockWithoutClassifying) {
  obs::MetricsRegistry metrics;
  ResultStore store{root_, &metrics};
  const auto spec = tiny_spec();

  store.write_summary(spec, 1, "{\"id\":1}");
  store.write_summary(spec, 2, "{\"id\":2}");
  store.lookup(spec, 2);  // 2 is now fresher than 1.
  store.touch(spec, 1);   // ...until touched.

  const auto entries = store.entries();
  ASSERT_EQ(entries.size(), 2u);
  const auto& e1 = entries[0].key == store.entry_key(spec, 1) ? entries[0] : entries[1];
  const auto& e2 = entries[0].key == store.entry_key(spec, 2) ? entries[0] : entries[1];
  EXPECT_GT(e1.last_used, e2.last_used);

  // touch() is the serve fast path's freshener: it must not count as a
  // cache classification (lookup did: one hit), and a missing entry is a
  // no-op, not a directory creation.
  EXPECT_EQ(metrics.counter_value("scenario.cache.hit"), 1.0);
  EXPECT_EQ(metrics.counter_value("scenario.cache.miss"), 0.0);
  store.touch(spec, 99);
  EXPECT_FALSE(fs::exists(store.entry_dir(spec, 99)));
}

TEST_F(StoreRobustnessTest, LockWaitTimesOutWithBoundedRetries) {
  ResultStore store{root_};
  const auto spec = tiny_spec();
  auto holder = store.try_lock(spec, spec.seed);
  ASSERT_TRUE(holder);

  RunOptions options;
  options.store = &store;
  options.lock_wait_ms = 1;
  options.lock_wait_attempts = 3;
  EXPECT_THROW(run_scenario(spec, options), std::runtime_error);
}

TEST_F(StoreRobustnessTest, CorruptSummaryIsEvictedAndReRun) {
  obs::MetricsRegistry metrics;
  ResultStore store{root_, &metrics};
  const auto spec = tiny_spec();

  write_raw(store.summary_path(spec, spec.seed), "{\"complete\":tru");  // torn
  EXPECT_EQ(store.read_summary_checked(spec, spec.seed), std::nullopt);
  EXPECT_EQ(metrics.counter_value("scenario.cache.corrupt_summaries"), 1.0);
  EXPECT_FALSE(store.has_summary(spec, spec.seed));

  // End to end: a torn summary on disk must never be served.
  write_raw(store.summary_path(spec, spec.seed), "");
  RunOptions options;
  options.store = &store;
  const auto result = run_scenario(spec, options);
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.from_cached_summary);
  EXPECT_EQ(result.summary, run_scenario(spec).summary);
}

TEST_F(StoreRobustnessTest, BudgetEvictsLeastRecentlyUsedFirst) {
  obs::MetricsRegistry metrics;
  ResultStore::Options store_options;
  store_options.max_bytes = 1;  // Everything evictable must go.
  ResultStore store{root_, &metrics, nullptr, store_options};
  const auto spec = tiny_spec();

  store.write_summary(spec, 1, "{\"id\":1}");
  store.write_summary(spec, 2, "{\"id\":2}");
  store.write_summary(spec, 3, "{\"id\":3}");
  // Freshen 1 and 3; entry 2 becomes the LRU victim ordering's head.
  store.lookup(spec, 1);
  store.lookup(spec, 3);
  store.lookup(spec, 1);

  // Budget of one byte, but entry 3 is protected (in-flight) and entry 1 is
  // locked by a live holder: only 2 may be evicted.
  auto lock = store.try_lock(spec, 1);
  const auto evicted = store.enforce_budget(store.entry_key(spec, 3));
  EXPECT_EQ(evicted, 1u);
  EXPECT_TRUE(store.has_summary(spec, 1));
  EXPECT_FALSE(store.has_summary(spec, 2));
  EXPECT_TRUE(store.has_summary(spec, 3));
  EXPECT_EQ(metrics.counter_value("scenario.cache.evictions"), 1.0);
  EXPECT_GT(metrics.counter_value("scenario.cache.evicted_bytes"), 0.0);

  // Released lock: the next enforcement may take entry 1 too.
  lock.release();
  EXPECT_EQ(store.enforce_budget(store.entry_key(spec, 3)), 1u);
  EXPECT_FALSE(store.has_summary(spec, 1));
  EXPECT_TRUE(store.has_summary(spec, 3));
}

TEST_F(StoreRobustnessTest, BudgetKeepsCacheUnderLimitWithoutTouchingFresh) {
  ResultStore::Options store_options;
  store_options.max_bytes = 4096;
  ResultStore store{root_, nullptr, nullptr, store_options};
  const auto spec = tiny_spec();

  // ~1.5 KiB per entry (spec json dominates); six entries exceed 4 KiB.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    store.prepare(spec, seed);
    store.write_summary(spec, seed, "{\"seed\":" + std::to_string(seed) + "}");
  }
  store.enforce_budget();

  std::uintmax_t total = 0;
  for (const auto& entry : store.entries()) total += entry.bytes;
  EXPECT_LE(total, store_options.max_bytes);
  EXPECT_FALSE(store.entries().empty()) << "budget must not wipe the cache";
  // Later seeds were written later and touched later: they survive.
  EXPECT_TRUE(store.has_summary(spec, 6));
}

TEST_F(StoreRobustnessTest, StaleSchemaEntriesAgeOutBeforeAnythingElse) {
  ResultStore::Options store_options;
  store_options.max_bytes = 1u << 30;  // Huge: only age-out can evict.
  ResultStore store{root_, nullptr, nullptr, store_options};
  const auto spec = tiny_spec();

  // Forge an entry from a previous schema version (same hash, -v0 suffix).
  const auto stale_key = spec.content_hash() + "-s1-v0";
  write_raw(root_ / stale_key / "summary.json", "{\"old\":true}");
  store.write_summary(spec, 1, "{\"new\":true}");

  ASSERT_EQ(store.entries().size(), 2u);
  EXPECT_EQ(store.enforce_budget(), 1u);
  const auto entries = store.entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].key, store.entry_key(spec, 1));
  EXPECT_TRUE(entries[0].current_schema);
}

TEST_F(StoreRobustnessTest, VerifyFlagsDamageAndBlessesTornJournalTails) {
  ResultStore store{root_};
  const auto spec = tiny_spec();

  store.prepare(spec, 1);
  store.write_summary(spec, 1, "{\"ok\":true}");

  store.prepare(spec, 2);
  write_raw(store.summary_path(spec, 2), "{\"torn\":tr");  // Unparseable.

  auto reports = store.verify();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_TRUE(reports[0].ok != reports[1].ok);
  for (const auto& report : reports) {
    if (!report.ok) {
      EXPECT_NE(report.note.find("summary"), std::string::npos);
    }
  }

  // A torn journal tail is healable, not damage.
  store.evict(spec, 2);
  const auto journal = store.prepare(spec, 2);
  write_raw(journal, "{\"header\":true}\n{\"cell\":0,\"rep\"");
  reports = store.verify();
  ASSERT_EQ(reports.size(), 2u);
  for (const auto& report : reports) EXPECT_TRUE(report.ok);
}

TEST_F(StoreRobustnessTest, ClockSurvivesAcrossStoreInstances) {
  const auto spec = tiny_spec();
  {
    ResultStore store{root_};
    store.write_summary(spec, 1, "{}");
    store.lookup(spec, 1);
  }
  ResultStore store{root_};
  store.write_summary(spec, 2, "{}");
  store.lookup(spec, 2);
  const auto entries = store.entries();
  ASSERT_EQ(entries.size(), 2u);
  // Monotonic logical time across process restarts: entry 2 is fresher.
  const auto& e1 = entries[0].key == store.entry_key(spec, 1) ? entries[0] : entries[1];
  const auto& e2 = entries[0].key == store.entry_key(spec, 2) ? entries[0] : entries[1];
  EXPECT_GT(e2.last_used, e1.last_used);
}

}  // namespace
}  // namespace cloudrepro::scenario
