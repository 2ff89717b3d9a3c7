// Determinism contract of the parallel campaign runtime: for any thread
// count, run_campaign produces byte-identical output to the serial
// reference path (threads=1) — values, summaries, CSV, and
// journal-resumable state — including interrupt/resume cycles that cross
// thread counts.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/campaign.h"

namespace cloudrepro::core {
namespace {

/// A 6-cell grid (2 configs x 3 treatments) whose measurements are pure
/// functions of the repetition's RNG stream and burn enough arithmetic that
/// workers genuinely interleave.
std::vector<CampaignCell> grid_cells() {
  std::vector<CampaignCell> cells;
  for (const char* config : {"net-heavy", "cpu-bound"}) {
    for (const char* treatment : {"budget=5000", "budget=100", "budget=10"}) {
      cells.push_back(CampaignCell{
          config, treatment,
          [](stats::Rng& r) {
            double acc = 0.0;
            for (int i = 0; i < 500; ++i) acc += r.normal(100.0, 5.0);
            return acc / 500.0 + r.uniform();
          },
          [] {}});
    }
  }
  return cells;
}

std::string csv_of(const CampaignResult& result) {
  std::ostringstream ss;
  result.write_csv(ss);
  return ss.str();
}

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.execution_order, b.execution_order);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    ASSERT_EQ(a.cells[i].values.size(), b.cells[i].values.size()) << "cell " << i;
    for (std::size_t r = 0; r < a.cells[i].values.size(); ++r) {
      // Bit-identical, not just close.
      EXPECT_EQ(a.cells[i].values[r], b.cells[i].values[r])
          << "cell " << i << " rep " << r;
    }
    EXPECT_EQ(a.cells[i].summary.mean, b.cells[i].summary.mean);
    EXPECT_EQ(a.cells[i].summary.coefficient_of_variation,
              b.cells[i].summary.coefficient_of_variation);
    EXPECT_EQ(a.cells[i].median_ci.lower, b.cells[i].median_ci.lower);
    EXPECT_EQ(a.cells[i].median_ci.upper, b.cells[i].median_ci.upper);
  }
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(csv_of(a), csv_of(b));
}

TEST(CampaignParallelTest, BitIdenticalAcrossThreadCounts) {
  CampaignOptions serial_opt;
  serial_opt.repetitions_per_cell = 20;
  serial_opt.threads = 1;
  const auto reference = run_campaign(grid_cells(), serial_opt, std::uint64_t{99});
  ASSERT_TRUE(reference.complete);

  for (const int threads : {0, 2, 4, 8}) {
    auto opt = serial_opt;
    opt.threads = threads;
    const auto parallel = run_campaign(grid_cells(), opt, std::uint64_t{99});
    expect_identical(reference, parallel);
  }
}

TEST(CampaignParallelTest, PartialResultMatchesSerialUnderMaxMeasurements) {
  // Budget interruption without a journal: the parallel path must execute
  // exactly the serially-first max_measurements tasks.
  for (const int prefix : {1, 7, 33, 100}) {
    CampaignOptions opt;
    opt.repetitions_per_cell = 20;
    opt.max_measurements = prefix;
    opt.threads = 1;
    const auto serial = run_campaign(grid_cells(), opt, std::uint64_t{5});
    opt.threads = 8;
    const auto parallel = run_campaign(grid_cells(), opt, std::uint64_t{5});
    expect_identical(serial, parallel);
    EXPECT_FALSE(parallel.complete);
  }
}

TEST(CampaignParallelTest, InterruptAndResumeAcrossThreadCounts) {
  const auto dir = std::filesystem::path{::testing::TempDir()};
  CampaignOptions opt;
  opt.repetitions_per_cell = 20;  // 6 cells x 20 reps = 120 measurements.

  // Ground truth: uninterrupted serial run, no journal.
  auto full_opt = opt;
  full_opt.threads = 1;
  const auto full = run_campaign(grid_cells(), full_opt, std::uint64_t{17});

  // Interrupt with one thread count, resume with another (both directions,
  // plus parallel -> parallel): the journal carries no trace of the thread
  // count, so any combination must reconstruct the ground truth.
  struct Cycle {
    int interrupt_threads;
    int resume_threads;
    int prefix;
  };
  for (const auto& cycle : {Cycle{8, 1, 13}, Cycle{1, 8, 29}, Cycle{4, 2, 57}}) {
    auto journal_opt = opt;
    journal_opt.journal_path =
        dir / ("parallel-cycle-" + std::to_string(cycle.prefix) + ".jsonl");
    std::filesystem::remove(journal_opt.journal_path);

    journal_opt.max_measurements = cycle.prefix;
    journal_opt.threads = cycle.interrupt_threads;
    const auto partial = run_campaign(grid_cells(), journal_opt, std::uint64_t{17});
    EXPECT_FALSE(partial.complete);

    journal_opt.max_measurements = 0;
    journal_opt.threads = cycle.resume_threads;
    const auto resumed = run_campaign(grid_cells(), journal_opt, std::uint64_t{17});
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.resumed_measurements, static_cast<std::size_t>(cycle.prefix));
    expect_identical(full, resumed);
  }
}

TEST(CampaignParallelTest, ResumingACompleteJournalExecutesNothingInParallel) {
  const auto dir = std::filesystem::path{::testing::TempDir()};
  CampaignOptions opt;
  opt.repetitions_per_cell = 4;
  opt.journal_path = dir / "parallel-complete.jsonl";
  std::filesystem::remove(opt.journal_path);

  opt.threads = 8;
  run_campaign(grid_cells(), opt, std::uint64_t{23});

  std::atomic<int> executions{0};
  auto cells = grid_cells();
  for (auto& cell : cells) {
    auto inner = cell.run_once;
    cell.run_once = [inner, &executions](stats::Rng& r) {
      executions.fetch_add(1, std::memory_order_relaxed);
      return inner(r);
    };
  }
  const auto resumed = run_campaign(cells, opt, std::uint64_t{23});
  EXPECT_EQ(executions.load(), 0);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.resumed_measurements, 24u);
}

TEST(CampaignParallelTest, FreshAndRunOnceCalledOncePerMeasurement) {
  std::atomic<int> fresh_calls{0};
  std::atomic<int> run_calls{0};
  std::vector<CampaignCell> cells{
      {"c", "t",
       [&run_calls](stats::Rng& r) {
         run_calls.fetch_add(1, std::memory_order_relaxed);
         return r.uniform();
       },
       [&fresh_calls] { fresh_calls.fetch_add(1, std::memory_order_relaxed); }}};
  CampaignOptions opt;
  opt.repetitions_per_cell = 25;
  opt.threads = 4;
  run_campaign(cells, opt, std::uint64_t{3});
  EXPECT_EQ(fresh_calls.load(), 25);
  EXPECT_EQ(run_calls.load(), 25);
}

TEST(CampaignParallelTest, WorkerExceptionPropagates) {
  std::vector<CampaignCell> cells = grid_cells();
  cells.push_back(CampaignCell{
      "bad", "t",
      [](stats::Rng&) -> double { throw std::runtime_error{"measurement failed"}; },
      [] {}});
  CampaignOptions opt;
  opt.repetitions_per_cell = 5;
  opt.randomize_order = false;
  opt.threads = 4;
  EXPECT_THROW(run_campaign(cells, opt, std::uint64_t{2}), std::runtime_error);
}

TEST(CampaignParallelTest, NegativeThreadsRejected) {
  CampaignOptions opt;
  opt.threads = -1;
  EXPECT_THROW(run_campaign(grid_cells(), opt, std::uint64_t{1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace cloudrepro::core
