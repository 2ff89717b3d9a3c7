// End-to-end scenario execution: the summary is a pure function of the
// scenario and seed — identical bytes cold, cached, resumed, threaded, or
// store-less — and a full hit executes nothing.

#include "scenario/runner.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>

#include "io/vfs.h"
#include "scenario/json.h"
#include "scenario/registry.h"

namespace cloudrepro::scenario {
namespace {

namespace fs = std::filesystem;

ScenarioSpec tiny_spec() {
  ScenarioSpec spec;
  spec.name = "runner-test";
  spec.workloads = {{"hibench", "TS", std::nullopt}, {"hibench", "KM", std::nullopt}};
  spec.budgets = {5000.0, 10.0};
  spec.repetitions = 3;
  return spec;
}

class ScenarioRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path{::testing::TempDir()} /
            ("cloudrepro-runner-" +
             std::string{::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()});
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
};

TEST_F(ScenarioRunnerTest, ColdRunProducesACompleteValidSummary) {
  const ScenarioSpec spec = tiny_spec();
  const auto result = run_scenario(spec);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.executed_measurements, 12u);
  EXPECT_EQ(result.resumed_measurements, 0u);

  const Json summary = Json::parse(result.summary);
  EXPECT_EQ(summary.at("scenario").as_string(), "runner-test");
  EXPECT_EQ(summary.at("scenario_hash").as_string(), spec.content_hash());
  EXPECT_EQ(summary.at("seed").as_uint(), spec.seed);
  EXPECT_TRUE(summary.at("complete").as_bool());
  const auto& cells = summary.at("cells").as_array();
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].at("config").as_string(), "TS");
  EXPECT_EQ(cells[0].at("treatment").as_string(), "budget=5000");
  EXPECT_EQ(cells[0].at("n").as_uint(), 3u);
  EXPECT_GT(cells[0].at("median").as_double(), 0.0);
  // Canonical bytes: re-serializing the parsed summary is the identity.
  EXPECT_EQ(summary.canonical(), result.summary);
}

TEST_F(ScenarioRunnerTest, SecondRunIsAFullHitWithByteIdenticalSummary) {
  const ScenarioSpec spec = tiny_spec();
  ResultStore store{root_};

  RunOptions options;
  options.store = &store;
  const auto cold = run_scenario(spec, options);
  EXPECT_EQ(cold.hit_state, ResultStore::HitState::kMiss);
  EXPECT_EQ(cold.executed_measurements, 12u);
  EXPECT_TRUE(cold.complete);

  const auto warm = run_scenario(spec, options);
  EXPECT_EQ(warm.hit_state, ResultStore::HitState::kHit);
  EXPECT_TRUE(warm.from_cached_summary);
  EXPECT_EQ(warm.executed_measurements, 0u);
  EXPECT_EQ(warm.resumed_measurements, 12u);
  EXPECT_EQ(warm.summary, cold.summary);
}

TEST_F(ScenarioRunnerTest, CacheStateAndThreadCountNeverChangeTheBytes) {
  const ScenarioSpec spec = tiny_spec();
  const auto reference = run_scenario(spec);  // Store-less, serial.

  ResultStore store{root_};
  RunOptions cached;
  cached.store = &store;
  cached.threads = 0;  // All cores.
  EXPECT_EQ(run_scenario(spec, cached).summary, reference.summary);
  EXPECT_EQ(run_scenario(spec, cached).summary, reference.summary);

  RunOptions threaded;
  threaded.threads = 3;
  EXPECT_EQ(run_scenario(spec, threaded).summary, reference.summary);
}

TEST_F(ScenarioRunnerTest, InterruptedRunResumesBitIdenticalAcrossThreadCounts) {
  const ScenarioSpec spec = tiny_spec();
  const auto reference = run_scenario(spec);

  ResultStore store{root_};
  RunOptions interrupt;
  interrupt.store = &store;
  interrupt.threads = 2;
  interrupt.max_measurements = 5;
  const auto partial = run_scenario(spec, interrupt);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.executed_measurements, 5u);
  EXPECT_FALSE(store.has_summary(spec, spec.seed));

  // The incomplete summary is honest about what it is.
  EXPECT_FALSE(Json::parse(partial.summary).at("complete").as_bool());

  RunOptions resume;
  resume.store = &store;
  resume.threads = 1;  // Different thread count than the interrupted run.
  const auto resumed = run_scenario(spec, resume);
  EXPECT_EQ(resumed.hit_state, ResultStore::HitState::kPartial);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.resumed_measurements, 5u);
  EXPECT_EQ(resumed.executed_measurements, 7u);
  EXPECT_EQ(resumed.summary, reference.summary);
  EXPECT_TRUE(store.has_summary(spec, spec.seed));
}

TEST_F(ScenarioRunnerTest, NeedValuesReplaysTheJournalWithoutExecuting) {
  const ScenarioSpec spec = tiny_spec();
  ResultStore store{root_};
  RunOptions options;
  options.store = &store;
  const auto cold = run_scenario(spec, options);

  options.need_values = true;
  const auto replay = run_scenario(spec, options);
  EXPECT_EQ(replay.executed_measurements, 0u);
  EXPECT_EQ(replay.resumed_measurements, 12u);
  EXPECT_FALSE(replay.from_cached_summary);
  EXPECT_EQ(replay.summary, cold.summary);
  // The campaign values are materialized for CSV export.
  ASSERT_EQ(replay.campaign.cells.size(), 4u);
  EXPECT_EQ(replay.campaign.cells[0].values.size(), 3u);
}

TEST_F(ScenarioRunnerTest, SeedOverrideKeysTheCacheIndependently) {
  const ScenarioSpec spec = tiny_spec();
  ResultStore store{root_};
  RunOptions options;
  options.store = &store;
  const auto a = run_scenario(spec, options);

  options.seed = 7;
  const auto b = run_scenario(spec, options);
  EXPECT_EQ(b.hit_state, ResultStore::HitState::kMiss);  // Not the seed-default entry.
  EXPECT_NE(b.summary, a.summary);
  EXPECT_EQ(Json::parse(b.summary).at("seed").as_uint(), 7u);
  EXPECT_TRUE(store.has_summary(spec, 7));

  // Re-running the override is now a hit.
  EXPECT_EQ(run_scenario(spec, options).hit_state, ResultStore::HitState::kHit);
}

TEST_F(ScenarioRunnerTest, CorruptJournalIsEvictedAndTheRunRedoneCold) {
  const ScenarioSpec spec = tiny_spec();
  ResultStore store{root_};
  RunOptions options;
  options.store = &store;
  const auto reference = run_scenario(spec, options);

  // Corrupt the entry: remove the summary and replace the journal with one
  // whose header cannot match this campaign.
  fs::remove(store.summary_path(spec, spec.seed));
  {
    std::ofstream out{store.journal_path(spec, spec.seed)};
    out << R"({"campaign_journal":1,"seed":999,"cells":[]})" << "\n";
    out << R"({"cell":0,"rep":0,"value":1.0})" << "\n";
  }

  const auto redo = run_scenario(spec, options);
  EXPECT_TRUE(redo.complete);
  EXPECT_EQ(redo.executed_measurements, 12u);
  EXPECT_EQ(redo.summary, reference.summary);
}

/// The real filesystem, calling `on_journal_open` whenever a campaign opens
/// its journal for append.
class JournalOpenProbe : public io::RealVfs {
 public:
  std::function<void()> on_journal_open;

  std::unique_ptr<io::WritableFile> open_write(const fs::path& path,
                                               io::WriteMode mode) override {
    if (mode == io::WriteMode::kAppend && path.filename() == "journal.jsonl") {
      on_journal_open();
    }
    return io::RealVfs::open_write(path, mode);
  }
};

TEST_F(ScenarioRunnerTest, MismatchedJournalRerunsUnderTheEntryLock) {
  const ScenarioSpec spec = tiny_spec();
  ResultStore store{root_};
  RunOptions options;
  options.store = &store;
  const auto reference = run_scenario(spec, options);

  fs::remove(store.summary_path(spec, spec.seed));
  {
    std::ofstream out{store.journal_path(spec, spec.seed)};
    out << R"({"campaign_journal":1,"seed":999,"cells":[]})" << "\n";
    out << R"({"cell":0,"rep":0,"value":1.0})" << "\n";
  }

  // The re-run opens a fresh journal: by then no other process may be able
  // to take the entry, or two campaigns would append to one journal.
  int opens = 0;
  JournalOpenProbe vfs;
  vfs.on_journal_open = [&] {
    ++opens;
    EXPECT_TRUE(fs::exists(store.entry_dir(spec, spec.seed) / "lock"));
    EXPECT_FALSE(store.try_lock(spec, spec.seed));
  };
  options.vfs = &vfs;
  const auto redo = run_scenario(spec, options);
  EXPECT_EQ(opens, 1);
  EXPECT_TRUE(redo.complete);
  EXPECT_EQ(redo.summary, reference.summary);
}

TEST_F(ScenarioRunnerTest, ConfirmAnalysisAppearsWhenEnabled) {
  ScenarioSpec spec = tiny_spec();
  spec.confirm.enabled = true;
  spec.confirm.error_bound = 0.5;  // Loose: 3 repetitions can satisfy it.
  const auto result = run_scenario(spec);
  const Json summary = Json::parse(result.summary);
  const auto& cell = summary.at("cells").as_array().front();
  const Json* confirm = cell.find("confirm");
  ASSERT_NE(confirm, nullptr);
  EXPECT_TRUE(confirm->find("final_estimate") != nullptr);
  EXPECT_GT(confirm->at("final_estimate").as_double(), 0.0);
}

ScenarioSpec adaptive_spec() {
  ScenarioSpec spec = tiny_spec();
  spec.name = "runner-adaptive-test";
  spec.workloads = {{"hibench", "TS", std::nullopt}};
  spec.budgets = {5000.0};
  spec.engine.machine_noise_cv = 0.05;
  spec.repetitions = 40;  // Cap; the stopping rule decides the actual count.
  spec.confirm.enabled = true;
  spec.confirm.adaptive = true;
  spec.confirm.error_bound = 0.10;
  spec.confirm.min_repetitions = 8;
  return spec;
}

TEST_F(ScenarioRunnerTest, AdaptiveStopIsByteIdenticalAcrossCacheAndThreads) {
  const ScenarioSpec spec = adaptive_spec();
  const auto reference = run_scenario(spec);  // Store-less, serial.
  EXPECT_TRUE(reference.complete);
  EXPECT_LT(reference.executed_measurements, 40u);  // Stopped early.

  const Json summary = Json::parse(reference.summary);
  const auto& cell = summary.at("cells").as_array().front();
  const Json* confirm = cell.find("confirm");
  ASSERT_NE(confirm, nullptr);
  EXPECT_TRUE(confirm->at("adaptive").as_bool());
  EXPECT_TRUE(confirm->at("converged").as_bool());
  EXPECT_EQ(confirm->at("stop_repetitions").as_uint(),
            reference.executed_measurements);
  EXPECT_GT(confirm->at("achieved_coverage").as_double(), 0.94);
  EXPECT_EQ(cell.at("n").as_uint(), reference.executed_measurements);

  // Cold vs cached vs threaded: identical bytes.
  ResultStore store{root_};
  RunOptions cached;
  cached.store = &store;
  cached.threads = 4;
  EXPECT_EQ(run_scenario(spec, cached).summary, reference.summary);
  const auto warm = run_scenario(spec, cached);
  EXPECT_TRUE(warm.from_cached_summary);
  EXPECT_EQ(warm.summary, reference.summary);
}

TEST_F(ScenarioRunnerTest, AdaptiveInterruptedRunResumesBitIdentically) {
  const ScenarioSpec spec = adaptive_spec();
  const auto reference = run_scenario(spec);

  ResultStore store{root_};
  RunOptions interrupt;
  interrupt.store = &store;
  interrupt.max_measurements = 3;
  const auto partial = run_scenario(spec, interrupt);
  EXPECT_FALSE(partial.complete);

  RunOptions resume;
  resume.store = &store;
  resume.threads = 2;
  const auto resumed = run_scenario(spec, resume);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.resumed_measurements, 3u);
  EXPECT_EQ(resumed.summary, reference.summary);
}

TEST_F(ScenarioRunnerTest, AdaptiveToggleChangesTheContentHash) {
  // --adaptive must cache under its own key: same grid, different protocol.
  ScenarioSpec fixed = adaptive_spec();
  fixed.confirm.adaptive = false;
  fixed.confirm.min_repetitions = 0;
  EXPECT_NE(adaptive_spec().content_hash(), fixed.content_hash());
}

TEST_F(ScenarioRunnerTest, RegistryCiSmokeRunsEndToEnd) {
  const auto& spec = ScenarioRegistry::builtin().at("ci-smoke");
  ResultStore store{root_};
  RunOptions options;
  options.store = &store;
  options.threads = 0;
  const auto cold = run_scenario(spec, options);
  EXPECT_TRUE(cold.complete);
  const auto warm = run_scenario(spec, options);
  EXPECT_TRUE(warm.from_cached_summary);
  EXPECT_EQ(warm.summary, cold.summary);
}

}  // namespace
}  // namespace cloudrepro::scenario
