// Suite scheduler: `run_suite` draws every member scenario's (cell,
// repetition) tasks from one shared thread pool, yet its emitted
// output must be byte-identical to the serial reference — at any thread
// count, cold or cached. This is the `cloudrepro suite --threads N`
// contract.

#include "scenario/runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include "runtime/thread_pool.h"
#include "scenario/registry.h"

namespace cloudrepro::scenario {
namespace {

namespace fs = std::filesystem;

/// Two tiny two-cell scenarios with deliberately unequal work: member one's
/// cells outlast member two's, so idle workers cross member boundaries to
/// stay busy.
std::vector<ScenarioSpec> tiny_suite() {
  ScenarioSpec heavy;
  heavy.name = "suite-test-heavy";
  heavy.workloads = {{"hibench", "TS", std::nullopt}};
  heavy.budgets = {5000.0, 10.0};
  heavy.repetitions = 4;

  ScenarioSpec light;
  light.name = "suite-test-light";
  light.workloads = {{"hibench", "KM", std::nullopt}};
  light.budgets = {1000.0};
  light.repetitions = 2;

  return {heavy, light};
}

/// Emits exactly what `cloudrepro suite` writes to stdout: one canonical
/// summary per line, in member order.
std::string emitted_bytes(const std::vector<ScenarioSpec>& specs,
                          RunOptions options) {
  std::string bytes;
  run_suite(specs, options,
            [&bytes](std::size_t, const ScenarioRunResult& result) {
              bytes += result.summary;
              bytes += '\n';
            });
  return bytes;
}

class SuiteWorkStealingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path{::testing::TempDir()} /
            ("cloudrepro-suite-" + std::string{::testing::UnitTest::GetInstance()
                                                   ->current_test_info()
                                                   ->name()});
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
};

TEST_F(SuiteWorkStealingTest, OutputBytesIdenticalAcrossThreadCountsAndCache) {
  const auto specs = tiny_suite();

  // Serial reference: threads=1, no store.
  RunOptions serial;
  serial.threads = 1;
  const std::string reference = emitted_bytes(specs, serial);
  ASSERT_FALSE(reference.empty());

  // Shared pool, cold: threads=4 against a fresh store.
  ResultStore store{root_};
  RunOptions stealing;
  stealing.threads = 4;
  stealing.store = &store;
  EXPECT_EQ(emitted_bytes(specs, stealing), reference) << "cold, threads=4";

  // Shared pool, cached: every member served from the published summary.
  EXPECT_EQ(emitted_bytes(specs, stealing), reference) << "cached, threads=4";

  // And threads=1 against the warm cache reads the same bytes back.
  RunOptions cached_serial;
  cached_serial.threads = 1;
  cached_serial.store = &store;
  EXPECT_EQ(emitted_bytes(specs, cached_serial), reference)
      << "cached, threads=1";
}

TEST_F(SuiteWorkStealingTest, MembersReportInMemberOrderWithSharedPool) {
  const auto specs = tiny_suite();
  RunOptions options;
  options.threads = 4;
  std::vector<std::size_t> order;
  const auto suite = run_suite(
      specs, options,
      [&order](std::size_t i, const ScenarioRunResult&) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1}));
  ASSERT_EQ(suite.members.size(), 2u);
  EXPECT_TRUE(suite.complete);
  EXPECT_EQ(suite.members[0].executed_measurements, 8u);
  EXPECT_EQ(suite.members[1].executed_measurements, 2u);
}

TEST_F(SuiteWorkStealingTest, ExternalPoolIsSharedAndSurvivesTheSuite) {
  // A caller-owned pool: run_suite must use it (not spawn its own), never
  // wait_idle it to death, and leave it serviceable afterwards.
  runtime::ThreadPool pool{3};
  const auto specs = tiny_suite();
  RunOptions serial;
  serial.threads = 1;
  const std::string reference = emitted_bytes(specs, serial);

  RunOptions external;
  external.pool = &pool;
  EXPECT_EQ(emitted_bytes(specs, external), reference);

  // The pool still runs tasks after the suite is done.
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 10);
}

TEST_F(SuiteWorkStealingTest, AdaptiveMembersConvergeIdenticallyUnderStealing) {
  // Adaptive CONFIRM is the order-sensitive path: one sequential task per
  // cell, stop decisions re-derived from the value prefix. Sharing workers
  // across members must not change a single byte of it.
  auto specs = tiny_suite();
  for (auto& spec : specs) {
    spec.confirm.enabled = true;
    spec.confirm.adaptive = true;
    spec.confirm.error_bound = 0.5;  // Loose: converges within the cap.
    spec.repetitions = 6;
  }
  RunOptions serial;
  serial.threads = 1;
  const std::string reference = emitted_bytes(specs, serial);

  RunOptions stealing;
  stealing.threads = 4;
  EXPECT_EQ(emitted_bytes(specs, stealing), reference);
}

TEST_F(SuiteWorkStealingTest, EmptySuiteIsANoOp) {
  RunOptions options;
  options.threads = 4;
  int calls = 0;
  const auto suite = run_suite(
      {}, options, [&calls](std::size_t, const ScenarioRunResult&) { ++calls; });
  EXPECT_TRUE(suite.members.empty());
  EXPECT_TRUE(suite.complete);
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace cloudrepro::scenario
