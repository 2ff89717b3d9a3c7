// ShardPlan under adversarial merges: duplicate deliveries from reassigned
// workers, torn worker tails, out-of-order arrival, conflicting records.
// Every outcome must be either a byte-identical canonical merge or a clean
// typed ShardMergeError with nothing committed — never silent divergence.

#include "shard/plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/journal.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "shard/runner.h"

namespace cloudrepro::shard {
namespace {

using core::JournalRecord;

scenario::ScenarioSpec tiny_spec() {
  scenario::ScenarioSpec spec;
  spec.name = "shard-plan-test";
  spec.workloads = {{"hibench", "TS", std::nullopt}, {"hibench", "KM", std::nullopt}};
  spec.budgets = {5000.0, 10.0};
  spec.repetitions = 3;
  return spec;
}

scenario::ScenarioSpec adaptive_spec() {
  scenario::ScenarioSpec spec;
  spec.name = "shard-plan-adaptive";
  spec.workloads = {{"hibench", "TS", std::nullopt}};
  spec.budgets = {5000.0};
  spec.engine.machine_noise_cv = 0.05;
  spec.repetitions = 40;  // Cap; the stopping rule decides.
  spec.confirm.enabled = true;
  spec.confirm.adaptive = true;
  spec.confirm.error_bound = 0.10;
  spec.confirm.min_repetitions = 8;
  return spec;
}

/// A fully-executed campaign as per-cell record lines, via the worker-side
/// runner — the same bytes a real worker would push.
struct Executed {
  std::vector<core::CampaignCell> cells;
  core::CampaignOptions options;
  std::vector<std::vector<std::string>> lines;  ///< Per cell.
};

Executed execute_all(const scenario::ScenarioSpec& spec) {
  Executed out;
  out.cells = scenario::build_cells(spec);
  out.options = scenario::campaign_options(spec);
  out.lines.resize(out.cells.size());
  for (std::size_t cell = 0; cell < out.cells.size(); ++cell) {
    CellTask task;
    task.cell = cell;
    const CellTaskResult result =
        run_cell_task(out.cells, out.options, spec.seed, task);
    EXPECT_TRUE(result.complete);
    out.lines[cell] = result.lines;
  }
  return out;
}

TEST(ShardPlan, MergeMatchesPushOrderIndependence) {
  const auto spec = tiny_spec();
  auto executed = execute_all(spec);

  // Reference: in-order pushes.
  ShardPlan reference{executed.cells, executed.options, spec.seed};
  for (std::size_t cell = 0; cell < executed.cells.size(); ++cell) {
    const auto outcome = reference.push(cell, executed.lines[cell]);
    EXPECT_EQ(outcome.accepted, executed.lines[cell].size());
    EXPECT_TRUE(outcome.cell_complete);
  }
  ASSERT_TRUE(reference.complete());
  const std::string merged = reference.merge();

  // Adversarial arrival: cells in reverse, every cell's lines shuffled, each
  // line its own push. The merge must not care.
  std::mt19937 shuffle_rng{42};
  ShardPlan scrambled{executed.cells, executed.options, spec.seed};
  for (std::size_t cell = executed.cells.size(); cell-- > 0;) {
    auto lines = executed.lines[cell];
    std::shuffle(lines.begin(), lines.end(), shuffle_rng);
    for (const auto& line : lines) scrambled.push(cell, {line});
  }
  ASSERT_TRUE(scrambled.complete());
  EXPECT_EQ(scrambled.merge(), merged);
}

TEST(ShardPlan, DuplicateRecordsFromReassignedWorkerAreDiscarded) {
  const auto spec = tiny_spec();
  auto executed = execute_all(spec);
  ShardPlan plan{executed.cells, executed.options, spec.seed};

  // Worker A delivers cell 0 fully, then "dies" before its push is acked;
  // the coordinator reassigns and worker B re-delivers the same cell.
  // Determinism makes B's records byte-identical, so the re-delivery is
  // pure duplicates — exactly-once without any protocol machinery.
  const auto first = plan.push(0, executed.lines[0]);
  EXPECT_EQ(first.accepted, executed.lines[0].size());
  const auto replay = plan.push(0, executed.lines[0]);
  EXPECT_EQ(replay.accepted, 0u);
  EXPECT_EQ(replay.duplicates, executed.lines[0].size());
  EXPECT_TRUE(replay.cell_complete);

  for (std::size_t cell = 1; cell < executed.cells.size(); ++cell) {
    plan.push(cell, executed.lines[cell]);
  }
  ASSERT_TRUE(plan.complete());
  // One authoritative copy: per-cell record count equals the repetition cap.
  for (std::size_t cell = 0; cell < executed.cells.size(); ++cell) {
    EXPECT_EQ(plan.cell_records(cell),
              static_cast<std::size_t>(spec.repetitions));
  }
}

TEST(ShardPlan, TornWorkerTailDropsSuffixNeverThrows) {
  const auto spec = tiny_spec();
  auto executed = execute_all(spec);
  ShardPlan plan{executed.cells, executed.options, spec.seed};

  // A worker that died mid-flush ships [good, good, garbled, good]: the
  // valid prefix lands, the garbled line AND everything after it drop (a
  // record after a torn line has no trustworthy provenance).
  auto lines = executed.lines[0];
  ASSERT_GE(lines.size(), 3u);
  std::vector<std::string> torn{lines[0], lines[1]};
  std::string garbled = lines[2];
  garbled[garbled.find("\"crc\":\"") + 8] ^= 1;  // Flip a checksum nibble.
  torn.push_back(garbled);
  torn.push_back(lines[2]);

  const auto outcome = plan.push(0, torn);
  EXPECT_EQ(outcome.accepted, 2u);
  EXPECT_EQ(outcome.dropped, 2u);
  EXPECT_FALSE(outcome.cell_complete);
  EXPECT_EQ(plan.cell_records(0), 2u);

  // The dropped record is simply still pending: resume hands back the
  // surviving prefix and a re-push of the intact line completes the cell.
  EXPECT_EQ(plan.resume_lines(0), (std::vector<std::string>{lines[0], lines[1]}));
  EXPECT_TRUE(plan.push(0, {lines[2]}).cell_complete);
}

TEST(ShardPlan, ConflictingRecordIsTypedErrorWithNothingCommitted) {
  const auto spec = tiny_spec();
  auto executed = execute_all(spec);
  ShardPlan plan{executed.cells, executed.options, spec.seed};
  plan.push(0, {executed.lines[0][0]});

  // Same (cell, rep), different value, *valid* checksum: a corrupt-but-
  // checksummed record or version-skewed worker. Must be a typed error —
  // accepting either value silently would poison the merged journal.
  core::JournalRecord record;
  ASSERT_TRUE(core::parse_journal_line(executed.lines[0][0], record));
  record.value += 1.0;
  const std::string conflicting = core::journal_line(record);

  try {
    plan.push(0, {conflicting, executed.lines[0][1]});
    FAIL() << "conflicting record must throw";
  } catch (const ShardMergeError& error) {
    EXPECT_EQ(error.code(), "conflict");
  }
  // Strong exception safety: the innocent line in the same push did not
  // land either.
  EXPECT_EQ(plan.cell_records(0), 1u);
  // The plan survives; the honest worker finishes the cell.
  EXPECT_TRUE(
      plan.push(0, {executed.lines[0][1], executed.lines[0][2]}).cell_complete);
}

TEST(ShardPlan, RangeAndCellMismatchAreTypedErrors) {
  const auto spec = tiny_spec();
  auto executed = execute_all(spec);
  ShardPlan plan{executed.cells, executed.options, spec.seed};

  try {
    plan.push(executed.cells.size(), {});
    FAIL() << "out-of-range cell must throw";
  } catch (const ShardMergeError& error) {
    EXPECT_EQ(error.code(), "range");
  }

  // A record for cell 1 inside a push addressed to cell 0.
  try {
    plan.push(0, {executed.lines[1][0]});
    FAIL() << "cross-cell record must throw";
  } catch (const ShardMergeError& error) {
    EXPECT_EQ(error.code(), "cell_mismatch");
  }

  // Repetition beyond the cap (valid checksum, impossible index).
  try {
    plan.push(0, {core::journal_line({0, spec.repetitions, 1.0})});
    FAIL() << "beyond-cap repetition must throw";
  } catch (const ShardMergeError& error) {
    EXPECT_EQ(error.code(), "range");
  }

  // Stop records do not exist in non-adaptive campaigns.
  try {
    plan.push(0, {core::journal_line(core::journal_stop_record(0, 2))});
    FAIL() << "stop record in non-adaptive campaign must throw";
  } catch (const ShardMergeError& error) {
    EXPECT_EQ(error.code(), "unexpected_stop");
  }
}

TEST(ShardPlan, MergeBeforeCompletionIsTypedError) {
  const auto spec = tiny_spec();
  auto executed = execute_all(spec);
  ShardPlan plan{executed.cells, executed.options, spec.seed};
  plan.push(0, executed.lines[0]);
  try {
    plan.merge();
    FAIL() << "premature merge must throw";
  } catch (const ShardMergeError& error) {
    EXPECT_EQ(error.code(), "incomplete");
  }
}

TEST(ShardPlan, AdaptiveStopDerivedNotTrusted) {
  const auto spec = adaptive_spec();
  auto executed = execute_all(spec);
  ASSERT_EQ(executed.cells.size(), 1u);
  const auto& lines = executed.lines[0];

  // The worker's final line is the journaled stop record.
  core::JournalRecord last;
  ASSERT_TRUE(core::parse_journal_line(lines.back(), last));
  ASSERT_EQ(last.kind, JournalRecord::Kind::kStop);
  const int stop = last.rep;
  ASSERT_LT(stop, spec.repetitions) << "scenario must stop before its cap";

  // Values alone (stop record torn away) still complete the cell: the plan
  // re-derives the stop point from the value prefix and re-emits the stop
  // record in the merge — byte-identical either way.
  ShardPlan without_stop{executed.cells, executed.options, spec.seed};
  const auto outcome = without_stop.push(
      0, std::vector<std::string>{lines.begin(), lines.end() - 1});
  EXPECT_TRUE(outcome.cell_complete);

  ShardPlan with_stop{executed.cells, executed.options, spec.seed};
  with_stop.push(0, lines);
  EXPECT_EQ(without_stop.merge(), with_stop.merge());

  // A value past the derived stop point is proof of divergence.
  ShardPlan beyond{executed.cells, executed.options, spec.seed};
  try {
    auto poisoned = lines;
    poisoned.back() = core::journal_line({0, stop, 123.0});  // Value at stop.
    beyond.push(0, poisoned);
    FAIL() << "value past the stop point must throw";
  } catch (const ShardMergeError& error) {
    EXPECT_EQ(error.code(), "beyond_stop");
  }

  // A stop record disagreeing with the derived stop point is a conflict.
  ShardPlan lying{executed.cells, executed.options, spec.seed};
  try {
    auto poisoned = lines;
    poisoned.back() =
        core::journal_line(core::journal_stop_record(0, stop + 1));
    lying.push(0, poisoned);
    FAIL() << "disagreeing stop record must throw";
  } catch (const ShardMergeError& error) {
    EXPECT_EQ(error.code(), "conflict");
  }
}

TEST(ShardPlan, ResumeLinesShipExactlyTheKnownPrefix) {
  const auto spec = tiny_spec();
  auto executed = execute_all(spec);
  ShardPlan plan{executed.cells, executed.options, spec.seed};
  EXPECT_TRUE(plan.resume_lines(0).empty());

  plan.push(0, {executed.lines[0][0], executed.lines[0][1]});
  const auto resume = plan.resume_lines(0);
  ASSERT_EQ(resume.size(), 2u);
  EXPECT_EQ(resume[0], executed.lines[0][0]);
  EXPECT_EQ(resume[1], executed.lines[0][1]);

  // A worker resumed from that prefix executes only the remainder and its
  // push completes the cell with no duplicates.
  CellTask task;
  task.cell = 0;
  task.resume_lines = resume;
  const CellTaskResult rest =
      run_cell_task(executed.cells, executed.options, spec.seed, task);
  EXPECT_EQ(rest.lines.size(), 1u);
  EXPECT_EQ(rest.executed, 1u);
  const auto outcome = plan.push(0, rest.lines);
  EXPECT_EQ(outcome.duplicates, 0u);
  EXPECT_TRUE(outcome.cell_complete);
}

TEST(ShardCellTask, CancelledCellHandsBackFinishedRepetitions) {
  // The cell raises the cancel flag from inside its 2nd repetition: that
  // repetition still finishes, the 3rd never starts, and both finished
  // repetitions come back as lines — the partial progress a SIGTERMed
  // worker pushes.
  std::atomic<bool> cancel{false};
  int calls = 0;
  std::vector<core::CampaignCell> cells(1);
  cells[0].config = "c";
  cells[0].treatment = "t";
  cells[0].fresh = [] {};
  cells[0].run_once = [&](stats::Rng& rng) {
    if (++calls == 2) cancel.store(true);
    return rng.uniform();
  };
  core::CampaignOptions options;
  options.repetitions_per_cell = 5;

  CellTask task;
  const CellTaskResult result =
      run_cell_task(cells, options, 7, task, /*threads=*/1, &cancel);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.executed, 2u);
  ASSERT_EQ(result.lines.size(), 2u);
  for (int r = 0; r < 2; ++r) {
    JournalRecord record;
    ASSERT_TRUE(core::parse_journal_line(result.lines[r], record));
    EXPECT_EQ(record.cell, 0u);
    EXPECT_EQ(record.rep, r);  // Ascending, like the serial journal.
  }
}

}  // namespace
}  // namespace cloudrepro::shard
