// CampaignRecords as the shard coordinator's plan, under adversarial merges:
// duplicate deliveries from reassigned workers, torn worker tails,
// out-of-order arrival, conflicting records. Every outcome must be either
// the byte-identical journal of a serial run or a clean typed RecordError
// with nothing committed — never silent divergence. Also: a worker's cell
// run through the campaign task loop, and replay staying lenient where push
// is strict.

#include "core/journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.h"

namespace cloudrepro::core {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 20200225;

/// A 2 x 2 grid of noisy cells, 3 repetitions each.
std::vector<CampaignCell> tiny_cells() {
  std::vector<CampaignCell> cells;
  for (const char* config : {"TS", "KM"}) {
    for (const char* treatment : {"budget=5000", "budget=10"}) {
      cells.push_back(CampaignCell{
          config, treatment,
          [](stats::Rng& rng) { return rng.normal(100.0, 10.0); }, [] {}});
    }
  }
  return cells;
}

CampaignOptions tiny_options() {
  CampaignOptions options;
  options.repetitions_per_cell = 3;
  return options;
}

/// One cell whose stopping rule holds well before its cap.
std::vector<CampaignCell> adaptive_cells() {
  return {CampaignCell{"TS", "budget=5000",
                       [](stats::Rng& rng) { return rng.normal(100.0, 5.0); },
                       [] {}}};
}

CampaignOptions adaptive_options() {
  CampaignOptions options;
  options.repetitions_per_cell = 40;  // Cap; the stopping rule decides.
  options.adaptive.enabled = true;
  options.adaptive.error_bound = 0.10;
  options.adaptive.min_repetitions = 8;
  return options;
}

/// Runs `cell` through the campaign task loop from `resume`, as a worker
/// does, and returns the record lines it hands back.
std::vector<std::string> run_cell(const std::vector<CampaignCell>& cells,
                                  const CampaignOptions& options,
                                  std::size_t cell,
                                  const std::vector<std::string>& resume = {}) {
  CampaignRecords records{cells, options, kSeed};
  records.push(cell, resume);
  std::vector<std::string> lines;
  EXPECT_TRUE(run_cells(cells, options, kSeed, {cell}, records,
                        [&](const std::string& line) { lines.push_back(line); }));
  return lines;
}

/// A fully executed campaign as per-cell record lines — the bytes workers
/// would push.
struct Executed {
  std::vector<CampaignCell> cells;
  CampaignOptions options;
  std::vector<std::vector<std::string>> lines;  ///< Per cell.
};

Executed execute_all(std::vector<CampaignCell> cells, CampaignOptions options) {
  Executed out{std::move(cells), std::move(options), {}};
  for (std::size_t cell = 0; cell < out.cells.size(); ++cell) {
    out.lines.push_back(run_cell(out.cells, out.options, cell));
  }
  return out;
}

CampaignRecords records_for(const Executed& executed) {
  return CampaignRecords{executed.cells, executed.options, kSeed};
}

fs::path test_dir() {
  const auto dir =
      fs::path{::testing::TempDir()} /
      ("cloudrepro-records-" + std::string{::testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name()});
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_file(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out << bytes;
}

TEST(ShardPlan, MergeMatchesPushOrderIndependence) {
  const auto executed = execute_all(tiny_cells(), tiny_options());

  // Reference: in-order pushes.
  auto reference = records_for(executed);
  for (std::size_t cell = 0; cell < executed.cells.size(); ++cell) {
    const auto outcome = reference.push(cell, executed.lines[cell]);
    EXPECT_EQ(outcome.accepted, executed.lines[cell].size());
    EXPECT_TRUE(outcome.cell_complete);
  }
  ASSERT_TRUE(reference.complete());
  const std::string merged = reference.journal();

  // The merged bytes are the journal a serial single-node run writes.
  CampaignOptions serial = executed.options;
  serial.journal_path = test_dir() / "serial.jsonl";
  ASSERT_TRUE(run_campaign(executed.cells, serial, kSeed).complete);
  EXPECT_EQ(merged, read_file(serial.journal_path));

  // Adversarial arrival: cells in reverse, every cell's lines shuffled, each
  // line its own push. The merge must not care.
  std::mt19937 shuffle_rng{42};
  auto scrambled = records_for(executed);
  for (std::size_t cell = executed.cells.size(); cell-- > 0;) {
    auto lines = executed.lines[cell];
    std::shuffle(lines.begin(), lines.end(), shuffle_rng);
    for (const auto& line : lines) scrambled.push(cell, {line});
  }
  ASSERT_TRUE(scrambled.complete());
  EXPECT_EQ(scrambled.journal(), merged);
}

TEST(ShardPlan, DuplicateRecordsFromReassignedWorkerAreDiscarded) {
  const auto executed = execute_all(tiny_cells(), tiny_options());
  auto plan = records_for(executed);

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
    EXPECT_EQ(plan.resume_lines(cell).size(),
              static_cast<std::size_t>(executed.options.repetitions_per_cell));
  }
}

TEST(ShardPlan, TornWorkerTailDropsSuffixNeverThrows) {
  const auto executed = execute_all(tiny_cells(), tiny_options());
  auto plan = records_for(executed);

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

  // The dropped record is simply still pending: resume hands back the
  // surviving prefix and a re-push of the intact line completes the cell.
  EXPECT_EQ(plan.resume_lines(0), (std::vector<std::string>{lines[0], lines[1]}));
  EXPECT_TRUE(plan.push(0, {lines[2]}).cell_complete);
}

TEST(ShardPlan, ConflictingRecordIsTypedErrorWithNothingCommitted) {
  const auto executed = execute_all(tiny_cells(), tiny_options());
  auto plan = records_for(executed);
  plan.push(0, {executed.lines[0][0]});

  // Same (cell, rep), different value, *valid* checksum: a corrupt-but-
  // checksummed record or version-skewed worker. Must be a typed error —
  // accepting either value silently would poison the merged journal.
  JournalRecord record;
  ASSERT_TRUE(parse_journal_line(executed.lines[0][0], record));
  record.value += 1.0;
  const std::string conflicting = journal_line(record);

  try {
    plan.push(0, {conflicting, executed.lines[0][1]});
    FAIL() << "conflicting record must throw";
  } catch (const RecordError& error) {
    EXPECT_EQ(error.code(), "conflict");
  }
  // Strong exception safety: the innocent line in the same push did not
  // land either.
  EXPECT_EQ(plan.resume_lines(0), (std::vector<std::string>{executed.lines[0][0]}));
  // The plan survives; the honest worker finishes the cell.
  EXPECT_TRUE(
      plan.push(0, {executed.lines[0][1], executed.lines[0][2]}).cell_complete);
}

TEST(ShardPlan, RangeAndCellMismatchAreTypedErrors) {
  const auto executed = execute_all(tiny_cells(), tiny_options());
  auto plan = records_for(executed);

  try {
    plan.push(executed.cells.size(), {});
    FAIL() << "out-of-range cell must throw";
  } catch (const RecordError& error) {
    EXPECT_EQ(error.code(), "range");
  }

  // A record for cell 1 inside a push addressed to cell 0.
  try {
    plan.push(0, {executed.lines[1][0]});
    FAIL() << "cross-cell record must throw";
  } catch (const RecordError& error) {
    EXPECT_EQ(error.code(), "cell_mismatch");
  }

  // Repetition beyond the cap (valid checksum, impossible index).
  try {
    plan.push(0, {journal_line({0, executed.options.repetitions_per_cell, 1.0})});
    FAIL() << "beyond-cap repetition must throw";
  } catch (const RecordError& error) {
    EXPECT_EQ(error.code(), "range");
  }

  // Stop records do not exist in non-adaptive campaigns.
  try {
    plan.push(0, {journal_line(journal_stop_record(0, 2))});
    FAIL() << "stop record in non-adaptive campaign must throw";
  } catch (const RecordError& error) {
    EXPECT_EQ(error.code(), "unexpected_stop");
  }
}

TEST(ShardPlan, JournalBeforeCompletionHoldsEveryKnownRecord) {
  const auto executed = execute_all(tiny_cells(), tiny_options());
  auto plan = records_for(executed);
  plan.push(0, executed.lines[0]);
  ASSERT_FALSE(plan.complete());

  // An incomplete set's journal is the header plus every known record: what
  // a coordinator persists when its session closes early.
  std::string expected = plan.header() + '\n';
  for (const auto& line : executed.lines[0]) expected += line + '\n';
  const std::string partial = plan.journal();
  EXPECT_EQ(partial, expected);

  // A single-node run resumes from it to the values of a cold run.
  CampaignOptions resumed = executed.options;
  resumed.journal_path = test_dir() / "resumed.jsonl";
  write_file(resumed.journal_path, partial);
  const auto result = run_campaign(executed.cells, resumed, kSeed);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.resumed_measurements, executed.lines[0].size());
  const auto cold = run_campaign(executed.cells, executed.options, kSeed);
  for (std::size_t cell = 0; cell < cold.cells.size(); ++cell) {
    EXPECT_EQ(result.cells[cell].values, cold.cells[cell].values);
  }
}

TEST(ShardPlan, AdaptiveStopDerivedNotTrusted) {
  const auto executed = execute_all(adaptive_cells(), adaptive_options());
  const auto& lines = executed.lines[0];

  // The worker's final line is the journaled stop record.
  JournalRecord last;
  ASSERT_TRUE(parse_journal_line(lines.back(), last));
  ASSERT_EQ(last.kind, JournalRecord::Kind::kStop);
  const int stop = last.rep;
  ASSERT_LT(stop, executed.options.repetitions_per_cell)
      << "the cell must stop before its cap";

  // Values alone (stop record torn away) still complete the cell: the plan
  // re-derives the stop point from the value prefix and re-emits the stop
  // record in the merge — byte-identical either way.
  auto without_stop = records_for(executed);
  const auto outcome = without_stop.push(
      0, std::vector<std::string>{lines.begin(), lines.end() - 1});
  EXPECT_TRUE(outcome.cell_complete);

  auto with_stop = records_for(executed);
  with_stop.push(0, lines);
  EXPECT_EQ(without_stop.journal(), with_stop.journal());

  // A value past the derived stop point is proof of divergence.
  auto beyond = records_for(executed);
  try {
    auto poisoned = lines;
    poisoned.back() = journal_line({0, stop, 123.0});  // Value at stop.
    beyond.push(0, poisoned);
    FAIL() << "value past the stop point must throw";
  } catch (const RecordError& error) {
    EXPECT_EQ(error.code(), "beyond_stop");
  }

  // A stop record disagreeing with the derived stop point is a conflict.
  auto lying = records_for(executed);
  try {
    auto poisoned = lines;
    poisoned.back() = journal_line(journal_stop_record(0, stop + 1));
    lying.push(0, poisoned);
    FAIL() << "disagreeing stop record must throw";
  } catch (const RecordError& error) {
    EXPECT_EQ(error.code(), "conflict");
  }
}

TEST(ShardPlan, ResumeLinesShipExactlyTheKnownPrefix) {
  const auto executed = execute_all(tiny_cells(), tiny_options());
  auto plan = records_for(executed);
  EXPECT_TRUE(plan.resume_lines(0).empty());

  plan.push(0, {executed.lines[0][0], executed.lines[0][1]});
  const auto resume = plan.resume_lines(0);
  ASSERT_EQ(resume.size(), 2u);
  EXPECT_EQ(resume[0], executed.lines[0][0]);
  EXPECT_EQ(resume[1], executed.lines[0][1]);

  // A worker resumed from that prefix executes only the remainder and its
  // push completes the cell with no duplicates.
  const auto rest = run_cell(executed.cells, executed.options, 0, resume);
  EXPECT_EQ(rest, (std::vector<std::string>{executed.lines[0][2]}));
  const auto outcome = plan.push(0, rest);
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
  std::vector<CampaignCell> cells(1);
  cells[0].config = "c";
  cells[0].treatment = "t";
  cells[0].fresh = [] {};
  cells[0].run_once = [&](stats::Rng& rng) {
    if (++calls == 2) cancel.store(true);
    return rng.uniform();
  };
  CampaignOptions options;
  options.repetitions_per_cell = 5;
  options.cancel = &cancel;

  CampaignRecords records{cells, options, 7};
  std::vector<std::string> lines;
  EXPECT_FALSE(run_cells(cells, options, 7, {0}, records,
                         [&](const std::string& line) { lines.push_back(line); }));
  ASSERT_EQ(lines.size(), 2u);
  for (int r = 0; r < 2; ++r) {
    JournalRecord record;
    ASSERT_TRUE(parse_journal_line(lines[r], record));
    EXPECT_EQ(record.cell, 0u);
    EXPECT_EQ(record.rep, r);  // Ascending, like the serial journal.
  }
}

TEST(CampaignRecords, ReplayIsLenientWherePushIsStrict) {
  const auto cells = adaptive_cells();
  const auto options = adaptive_options();
  const fs::path dir = test_dir();
  const auto reference = run_campaign(cells, options, kSeed);
  const CampaignCellResult& want = reference.cells[0];
  ASSERT_TRUE(want.adaptive_converged);
  const int stop = static_cast<int>(want.stop_repetitions);
  ASSERT_LT(stop, options.repetitions_per_cell);

  // CRC-valid journals whose stop record disagrees with their values: one
  // claims a stop before the rule's (its values end there too), the other
  // a stop after it.
  struct Case {
    const char* name;
    int values;
    int claimed_stop;
  };
  for (const Case& c : {Case{"stop too early", stop - 1, stop - 1},
                        Case{"stop too late", stop, stop + 1}}) {
    SCOPED_TRACE(c.name);
    std::vector<std::string> lines;
    for (int r = 0; r < c.values; ++r) {
      lines.push_back(journal_line({0, r, want.values[static_cast<std::size_t>(r)]}));
    }
    lines.push_back(journal_line(journal_stop_record(0, c.claimed_stop)));

    // Replay resumes it to the reference result.
    CampaignOptions resumed = options;
    resumed.journal_path = dir / (std::string{c.name} + ".jsonl");
    std::string journal = journal_header(cells, options, kSeed) + '\n';
    for (const auto& line : lines) journal += line + '\n';
    write_file(resumed.journal_path, journal);
    CampaignResult result;
    ASSERT_NO_THROW(result = run_campaign(cells, resumed, kSeed));
    EXPECT_TRUE(result.complete);
    EXPECT_TRUE(result.cells[0].adaptive_converged);
    EXPECT_EQ(result.cells[0].stop_repetitions, want.stop_repetitions);
    EXPECT_EQ(result.cells[0].values, want.values);

    // Pushing the same records into a record set is a typed conflict.
    CampaignRecords records{cells, options, kSeed};
    try {
      records.push(0, lines);
      FAIL() << "a contradicted stop record must not be pushed";
    } catch (const RecordError& error) {
      EXPECT_EQ(error.code(), "conflict");
    }
  }
}

}  // namespace
}  // namespace cloudrepro::core
