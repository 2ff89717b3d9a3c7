// Crash-torture harness for the campaign journal: crash the "process" at
// every possible vfs operation k, restart, and require the final result to
// be byte-identical to an uninterrupted run. If any durability assumption
// in the journal path is wrong (missing fsync, non-atomic publish, corrupt
// tail mishandling), some k exposes it. The crash, ENOSPC and cancellation
// cases run both inline (one thread) and on a four-worker pool, each with
// adaptive stopping off and on.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "core/journal.h"
#include "io/fault_vfs.h"
#include "io/vfs.h"
#include "runtime/thread_pool.h"

namespace cloudrepro::core {
namespace {

namespace fs = std::filesystem;

/// Cheap deterministic cells: each repetition's value is a pure function of
/// its seed-derived RNG stream, so interrupted-and-resumed campaigns can be
/// compared bit-for-bit against uninterrupted ones.
std::vector<CampaignCell> torture_cells() {
  std::vector<CampaignCell> cells;
  const struct {
    const char* config;
    const char* treatment;
    double mean;
  } specs[] = {{"wl-a", "t=1", 100.0},
               {"wl-a", "t=2", 150.0},
               {"wl-b", "t=1", 80.0}};
  for (const auto& spec : specs) {
    cells.push_back(CampaignCell{
        spec.config, spec.treatment,
        [mean = spec.mean](stats::Rng& rng) { return rng.normal(mean, 5.0); },
        [] {}});
  }
  return cells;
}

/// How a torture case runs the campaign.
struct RunMode {
  int threads = 1;
  bool adaptive = false;
};

/// Names each instance in test listings, e.g. "threads4_adaptive".
void PrintTo(const RunMode& mode, std::ostream* os) {
  *os << "threads" << mode.threads << (mode.adaptive ? "_adaptive" : "");
}

CampaignOptions torture_options(RunMode mode = {}) {
  CampaignOptions options;
  options.repetitions_per_cell = 4;  // 3 cells x 4 reps = 12 measurements.
  options.threads = mode.threads;
  if (mode.adaptive) {
    // Two cells stop after 3 repetitions (journaling a stop record) and
    // the third runs to the cap.
    options.adaptive.enabled = true;
    options.adaptive.confidence = 0.7;  // A median CI exists from n = 3.
    options.adaptive.error_bound = 0.04;
  }
  return options;
}

std::string csv_bytes(const CampaignResult& result) {
  std::ostringstream out;
  result.write_csv(out);
  return out.str();
}

class CampaignCrashTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Parameterized test names contain '/'; keep one flat directory each.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    root_ = fs::path{::testing::TempDir()} / ("cloudrepro-torture-" + name);
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
  io::RealVfs real_;
  static constexpr std::uint64_t kSeed = 20200225;  // NSDI '20 day one.
};

class CampaignModeTortureTest : public CampaignCrashTortureTest,
                                public ::testing::WithParamInterface<RunMode> {};

INSTANTIATE_TEST_SUITE_P(Modes, CampaignModeTortureTest,
                         ::testing::Values(RunMode{1, false}, RunMode{4, false},
                                           RunMode{1, true}, RunMode{4, true}));

TEST_P(CampaignModeTortureTest, EveryCrashPointResumesBitIdentical) {
  // Uninterrupted reference run (journaled through a counting FaultVfs so
  // its op total defines the crash-point sweep domain).
  io::FaultVfs counting{real_};
  auto options = torture_options(GetParam());
  options.vfs = &counting;
  options.journal_path = root_ / "ref" / "journal.jsonl";
  fs::create_directories(root_ / "ref");
  const auto reference = run_campaign(torture_cells(), options, kSeed);
  ASSERT_TRUE(reference.complete);
  if (GetParam().adaptive) {
    // The sweep must cross stop records: some cell stops before the cap.
    ASSERT_TRUE(std::any_of(reference.cells.begin(), reference.cells.end(),
                            [](const CampaignCellResult& cell) {
                              return cell.adaptive_converged && cell.values.size() < 4u;
                            }));
  }
  const std::string reference_csv = csv_bytes(reference);
  const std::uint64_t total_ops = counting.ops();
  ASSERT_GT(total_ops, 10u);

  for (std::uint64_t k = 1; k <= total_ops; ++k) {
    const auto dir = root_ / ("k" + std::to_string(k));
    fs::create_directories(dir);
    auto opts = torture_options(GetParam());
    opts.journal_path = dir / "journal.jsonl";

    // Run until the crash, losing a torn fraction of unsynced bytes.
    io::FaultVfsOptions fault;
    fault.crash_at_op = k;
    fault.torn_write_seed = k * 77 + 1;
    bool crashed = false;
    CampaignResult result;
    {
      io::FaultVfs vfs{real_, fault};
      opts.vfs = &vfs;
      try {
        result = run_campaign(torture_cells(), opts, kSeed);
      } catch (const io::SimulatedCrash&) {
        crashed = true;
      }
    }
    if (crashed) {
      // Restart: a fresh "process" over whatever survived on disk.
      io::FaultVfs vfs{real_};
      opts.vfs = &vfs;
      result = run_campaign(torture_cells(), opts, kSeed);
    }

    ASSERT_TRUE(result.complete) << "crash point k=" << k;
    EXPECT_EQ(csv_bytes(result), reference_csv)
        << "resumed result diverged after crash at op " << k;
  }
}

TEST_F(CampaignCrashTortureTest, DroppedFsyncStillResumesBitIdentical) {
  // Op-count the clean run so the schedule can target its final fsync.
  io::FaultVfs counting{real_};
  auto ref_opts = torture_options();
  ref_opts.vfs = &counting;
  ref_opts.journal_path = root_ / "ref.jsonl";
  const auto reference = run_campaign(torture_cells(), ref_opts, kSeed);
  const std::uint64_t total_ops = counting.ops();

  // Drop every fsync the campaign issues, let it "complete", then crash on
  // the next operation: nothing was ever durable, so the crash may tear the
  // journal anywhere — including mid-record. Resume must still converge to
  // the same result.
  auto options = torture_options();
  options.journal_path = root_ / "journal.jsonl";
  io::FaultVfsOptions fault;
  fault.crash_at_op = total_ops + 1;
  fault.torn_write_seed = 99;
  for (std::uint64_t op = 1; op <= total_ops; ++op) {
    fault.dropped_fsyncs.push_back(op);
  }
  {
    io::FaultVfs vfs{real_, fault};
    options.vfs = &vfs;
    const auto doomed = run_campaign(torture_cells(), options, kSeed);
    EXPECT_TRUE(doomed.complete);  // It believes its fsyncs happened...
    EXPECT_GT(vfs.dropped_sync_count(), 0u);
    EXPECT_THROW(vfs.exists(root_), io::SimulatedCrash);  // ...then dies.
  }
  io::FaultVfs vfs{real_};
  options.vfs = &vfs;
  const auto resumed = run_campaign(torture_cells(), options, kSeed);
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(csv_bytes(resumed), csv_bytes(reference));
}

TEST_P(CampaignModeTortureTest, EnospcPropagatesAndResumeCompletes) {
  auto options = torture_options(GetParam());
  options.journal_path = root_ / "journal.jsonl";
  // With workers, run on a shared pool that outlives the campaign, as
  // `cloudrepro suite` does: then only the campaign itself can hold the
  // error back until every task has landed.
  std::optional<runtime::ThreadPool> shared;
  if (GetParam().threads > 1) options.pool = &shared.emplace(GetParam().threads);

  // Measurements still running when the error surfaces would be using a
  // campaign frame that is already gone.
  std::atomic<int> in_flight{0};
  std::vector<CampaignCell> cells = torture_cells();
  for (auto& cell : cells) {
    auto inner = cell.run_once;
    cell.run_once = [&in_flight, inner](stats::Rng& rng) {
      ++in_flight;
      std::this_thread::sleep_for(std::chrono::microseconds{200});
      const double value = inner(rng);
      --in_flight;
      return value;
    };
  }

  io::FaultVfsOptions fault;
  fault.enospc_after_bytes = 600;  // Enough for the header + a few records.
  {
    io::FaultVfs vfs{real_, fault};
    options.vfs = &vfs;
    try {
      run_campaign(std::move(cells), options, kSeed);
      FAIL() << "the journal write past the budget must surface ENOSPC";
    } catch (const io::IoError& error) {
      EXPECT_EQ(error.error_code(), ENOSPC);
      EXPECT_EQ(in_flight.load(), 0);
    }
  }

  // The disk "recovers"; the journaled prefix is reused, not re-run.
  io::FaultVfs vfs{real_};
  options.vfs = &vfs;
  const auto resumed = run_campaign(torture_cells(), options, kSeed);
  ASSERT_TRUE(resumed.complete);
  EXPECT_GT(resumed.resumed_measurements, 0u);

  auto clean_opts = torture_options(GetParam());
  const auto clean = run_campaign(torture_cells(), clean_opts, kSeed);
  EXPECT_EQ(csv_bytes(resumed), csv_bytes(clean));
}

TEST_P(CampaignModeTortureTest, CancellationJournalsPrefixAndResumes) {
  std::atomic<bool> cancel{false};
  std::atomic<int> executed{0};

  // The cancel flag flips from inside the 5th measurement — the shape of a
  // SIGINT arriving mid-campaign.
  std::vector<CampaignCell> cells = torture_cells();
  for (auto& cell : cells) {
    auto inner = cell.run_once;
    cell.run_once = [&cancel, &executed, inner](stats::Rng& rng) {
      if (++executed == 5) cancel.store(true);
      return inner(rng);
    };
  }

  auto options = torture_options(GetParam());
  options.journal_path = root_ / "journal.jsonl";
  options.cancel = &cancel;
  const auto interrupted = run_campaign(std::move(cells), options, kSeed);
  EXPECT_FALSE(interrupted.complete);
  // With workers, measurements already running when the flag flips finish.
  const auto ran = static_cast<std::size_t>(executed.load());
  if (GetParam().threads == 1) {
    EXPECT_EQ(ran, 5u);
  }

  // Every executed measurement reached the journal before return.
  auto& vfs = io::real_vfs();
  const auto replay = replay_journal(
      vfs, options.journal_path,
      journal_header(torture_cells(), options, kSeed), 3,
      options.repetitions_per_cell);
  EXPECT_EQ(replay.done.size(), ran);

  auto resume_opts = torture_options(GetParam());
  resume_opts.journal_path = options.journal_path;
  const auto resumed = run_campaign(torture_cells(), resume_opts, kSeed);
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.resumed_measurements, ran);

  const auto clean =
      run_campaign(torture_cells(), torture_options(GetParam()), kSeed);
  EXPECT_EQ(csv_bytes(resumed), csv_bytes(clean));
}

}  // namespace
}  // namespace cloudrepro::core
