// Crash torture through the whole persistence stack: run_scenario with a
// ResultStore over a FaultVfs, crash at every vfs operation k, restart,
// and require the final published summary to be byte-identical to an
// uninterrupted run — the capstone guarantee of the durability layer.
//
// The in-repo sweep uses a 3-measurement spec so the exhaustive k-loop
// stays cheap. Setting CLOUDREPRO_CRASH_TORTURE=1 additionally sweeps the
// ci-smoke catalog scenario (12 measurements) at a stride — the dedicated
// CI job runs that; local ctest skips it.

#include <gtest/gtest.h>

#include <csignal>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "io/fault_vfs.h"
#include "io/vfs.h"
#include "obs/metrics.h"
#include "scenario/registry.h"
#include "scenario/result_store.h"
#include "scenario/runner.h"

namespace cloudrepro::scenario {
namespace {

namespace fs = std::filesystem;

ScenarioSpec micro_spec() {
  ScenarioSpec spec;
  spec.name = "torture-micro";
  spec.workloads = {{"hibench", "TS", std::nullopt}};
  spec.budgets = {5000.0};
  spec.repetitions = 3;
  return spec;
}

class ScenarioTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path{::testing::TempDir()} /
            ("cloudrepro-scenario-torture-" +
             std::string{::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()});
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  /// Sweeps crash point k over [1, stride, 2*stride, ...]: crash, restart
  /// with a clean vfs over the surviving bytes, and compare the final
  /// summary against `reference` byte for byte.
  void sweep(const ScenarioSpec& spec, const std::string& reference,
             std::uint64_t total_ops, std::uint64_t stride) {
    for (std::uint64_t k = 1; k <= total_ops; k += stride) {
      const auto cache = root_ / ("k" + std::to_string(k));

      io::FaultVfsOptions fault;
      fault.crash_at_op = k;
      fault.torn_write_seed = k * 131 + 7;
      bool crashed = false;
      std::string summary;
      {
        io::FaultVfs vfs{real_, fault};
        ResultStore store{cache, nullptr, &vfs};
        RunOptions options;
        options.store = &store;
        options.vfs = &vfs;
        try {
          summary = run_scenario(spec, options).summary;
        } catch (const io::SimulatedCrash&) {
          crashed = true;
        }
      }
      if (crashed) {
        io::FaultVfs vfs{real_};
        ResultStore store{cache, nullptr, &vfs};
        RunOptions options;
        options.store = &store;
        options.vfs = &vfs;
        const auto resumed = run_scenario(spec, options);
        ASSERT_TRUE(resumed.complete) << "crash point k=" << k;
        summary = resumed.summary;

        // The restart heals the entry completely: verify finds no damage.
        for (const auto& report : store.verify()) {
          EXPECT_TRUE(report.ok) << "k=" << k << ": " << report.note;
        }
      }
      EXPECT_EQ(summary, reference) << "summary diverged after crash at op " << k;
    }
  }

  fs::path root_;
  io::RealVfs real_;
};

TEST_F(ScenarioTortureTest, EveryCrashPointYieldsTheUninterruptedSummary) {
  const auto spec = micro_spec();
  const std::string reference = run_scenario(spec).summary;

  // Clean store-backed run through a counting vfs: its op total is the
  // sweep domain (journal + lock + LRU stamp + summary publication ops).
  io::FaultVfs counting{real_};
  ResultStore store{root_ / "ref", nullptr, &counting};
  RunOptions options;
  options.store = &store;
  options.vfs = &counting;
  ASSERT_EQ(run_scenario(spec, options).summary, reference);
  const std::uint64_t total_ops = counting.ops();
  ASSERT_GT(total_ops, 20u);

  sweep(spec, reference, total_ops, /*stride=*/1);
}

TEST_F(ScenarioTortureTest, LruOrderSurvivesACrashAtEveryOpOfALookup) {
  // A, B and C are published, then B and C are touched: A is the least
  // recently used. A lookup of A that crashes at op k, then a restart that
  // looks A up again, must leave B as the LRU victim — a crash may lose a
  // freshening, never reset the recency of the entries it did not touch.
  const auto spec = micro_spec();
  constexpr std::uint64_t kA = 1;
  constexpr std::uint64_t kB = 2;
  constexpr std::uint64_t kC = 3;
  for (std::uint64_t k = 1;; ++k) {
    ASSERT_LT(k, 64u) << "the lookup never ran to completion";
    const auto cache = root_ / ("k" + std::to_string(k));
    {
      ResultStore store{cache, nullptr, &real_};
      for (const std::uint64_t seed : {kA, kB, kC}) {
        store.write_summary(spec, seed, "{\"seed\":" + std::to_string(seed) + "}");
      }
      store.touch(spec, kB);
      store.touch(spec, kC);
    }

    io::FaultVfsOptions fault;
    fault.crash_at_op = k;
    fault.torn_write_seed = k;
    bool crashed = false;
    {
      io::FaultVfs vfs{real_, fault};
      ResultStore store{cache, nullptr, &vfs};
      try {
        store.lookup(spec, kA);
      } catch (const io::SimulatedCrash&) {
        crashed = true;
      }
    }
    if (!crashed) break;  // k is past the lookup's last op: all were swept.

    ResultStore restarted{cache, nullptr, &real_};
    restarted.lookup(spec, kA);
    std::uintmax_t largest = 0;
    for (const auto& entry : restarted.entries()) {
      largest = std::max(largest, entry.bytes);
    }
    ResultStore::Options budget;
    budget.max_bytes = 2 * largest;  // Room for two of the three entries.
    ResultStore bounded{cache, nullptr, &real_, budget};
    EXPECT_EQ(bounded.enforce_budget(), 1u) << "crash at op " << k;
    EXPECT_TRUE(bounded.has_summary(spec, kA)) << "crash at op " << k;
    EXPECT_FALSE(bounded.has_summary(spec, kB)) << "crash at op " << k;
    EXPECT_TRUE(bounded.has_summary(spec, kC)) << "crash at op " << k;
    EXPECT_FALSE(fs::exists(cache / "clock")) << "no store-wide clock file";
  }
}

TEST_F(ScenarioTortureTest, CiSmokeStridedSweepWhenRequested) {
  if (const char* env = std::getenv("CLOUDREPRO_CRASH_TORTURE");
      !env || std::string_view{env} != "1") {
    GTEST_SKIP() << "set CLOUDREPRO_CRASH_TORTURE=1 to run the ci-smoke sweep";
  }
  const ScenarioSpec spec = ScenarioRegistry::builtin().at("ci-smoke");
  const std::string reference = run_scenario(spec).summary;

  io::FaultVfs counting{real_};
  ResultStore store{root_ / "ref", nullptr, &counting};
  RunOptions options;
  options.store = &store;
  options.vfs = &counting;
  ASSERT_EQ(run_scenario(spec, options).summary, reference);

  sweep(spec, reference, counting.ops(), /*stride=*/3);
}

TEST_F(ScenarioTortureTest, SignalDrivenCancellationResumesBitIdentical) {
  // The CLI wires SIGINT to an atomic the campaign polls. Model exactly
  // that: a real handler, a real raise(), then a resumed run — which must
  // land on the uninterrupted bytes.
  static std::atomic<bool> cancel{false};
  cancel.store(false);
  using Handler = void (*)(int);
  const Handler previous = std::signal(SIGINT, +[](int) { cancel.store(true); });
  ASSERT_NE(previous, SIG_ERR);

  const auto spec = micro_spec();
  const std::string reference = run_scenario(spec).summary;

  ResultStore store{root_ / "cache"};
  {
    // Interrupt "before the run": the flag is already set when the campaign
    // checks it, so zero new measurements start and the journal holds only
    // completed work (here: none) — the deterministic stand-in for a signal
    // arriving mid-campaign, whose nondeterministic variant the campaign
    // cancellation test covers.
    std::raise(SIGINT);
    RunOptions options;
    options.store = &store;
    options.cancel = &cancel;
    const auto interrupted = run_scenario(spec, options);
    EXPECT_FALSE(interrupted.complete);
    EXPECT_EQ(interrupted.executed_measurements, 0u);
    EXPECT_FALSE(store.has_summary(spec, spec.seed));
  }

  cancel.store(false);
  RunOptions options;
  options.store = &store;
  options.cancel = &cancel;
  const auto resumed = run_scenario(spec, options);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.summary, reference);
  EXPECT_TRUE(store.has_summary(spec, spec.seed));

  std::signal(SIGINT, previous);
}

}  // namespace
}  // namespace cloudrepro::scenario
