#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/confirm.h"
#include "core/experiment.h"
#include "stats/hypothesis.h"

namespace cloudrepro::io {
class Vfs;
}  // namespace cloudrepro::io

namespace cloudrepro::obs {
class MetricsRegistry;
class Tracer;
}  // namespace cloudrepro::obs

namespace cloudrepro::runtime {
class ThreadPool;
}  // namespace cloudrepro::runtime

namespace cloudrepro::core {

/// Experiment campaigns: a grid of configurations, each run as a full
/// experiment, executed in randomized order (F5.4: "randomizing experiment
/// order is a useful technique for avoiding self-interference") with
/// resets between cells, and reported with the statistics the paper's
/// survey found missing.
///
/// This is the production version of what the Figure 16/17 benches do
/// inline: sweep (workload x budget), run N repetitions each, and publish
/// median + CI + variability per cell plus cross-cell significance.
///
/// Campaigns are resumable: with a `journal_path` set, every completed
/// measurement is appended to a JSONL journal as soon as it finishes. A
/// re-run pointed at the same journal replays the completed (cell,
/// repetition) entries and executes only the remainder. Because each
/// repetition draws from its own seed-derived RNG stream, a resumed
/// campaign is bit-identical to one that ran uninterrupted — long cloud
/// sweeps survive spot revocations of the *driver* node too.

/// One cell of the grid: a label and a factory that produces a measurement
/// function after the environment has been configured for this cell.
struct CampaignCell {
  std::string config;    ///< E.g. the workload name ("TS", "Q65").
  std::string treatment; ///< E.g. the budget level ("budget=100").

  /// Prepares the environment for this cell (set budgets, choose workload)
  /// and returns the per-repetition measurement.
  std::function<double(stats::Rng&)> run_once;

  /// Resets hidden state before each repetition of this cell.
  std::function<void()> fresh;
};

struct CampaignOptions {
  int repetitions_per_cell = 10;
  bool randomize_order = true;
  double confidence = 0.95;

  /// When non-empty, completed measurements are journaled here (JSONL) and
  /// an existing journal written by the same (seed, options, cells) is
  /// resumed instead of re-executed.
  std::filesystem::path journal_path{};

  /// Stop after executing this many *new* measurements (0 = unlimited).
  /// The journal keeps what completed; a later run resumes the rest. Tests
  /// use this to interrupt a campaign after an arbitrary prefix.
  int max_measurements = 0;

  /// Worker threads executing (cell, repetition) tasks: 1 (the default) is
  /// the serial reference path, 0 means hardware concurrency, N > 1 runs N
  /// workers. Because every repetition draws from its own seed-derived RNG
  /// stream and results land in pre-assigned grid slots, the result —
  /// values, summaries, CSV, journal-resumable state — is bit-identical
  /// across thread counts. The thread count is deliberately *not* part of
  /// the journal header: a campaign interrupted at threads=8 resumes
  /// correctly at threads=1 and vice versa.
  ///
  /// With threads > 1 the cell callables run concurrently (possibly several
  /// repetitions of the same cell at once), so `run_once`/`fresh` must not
  /// share unsynchronized mutable state — build per-repetition state inside
  /// the callables instead of capturing a shared cluster/engine.
  int threads = 1;

  /// External worker pool: when set, (cell, repetition) tasks are submitted
  /// to this pool instead of a campaign-private one and `threads` is
  /// ignored. This is how `cloudrepro suite` runs several campaigns against
  /// one shared thread budget — any idle worker takes the next queued task
  /// of any member. The campaign never calls `wait_idle` on an external
  /// pool (other campaigns' tasks may be in flight); it tracks its own
  /// completion count. Like `threads`, the pool is not part of the journal
  /// header: scheduling never changes what a campaign computes.
  runtime::ThreadPool* pool = nullptr;

  /// Adaptive CONFIRM stopping: when enabled, each cell runs until its
  /// quantile-CI relative half-width meets `adaptive.error_bound` (evaluated
  /// by a `ConfirmMonitor` after every repetition, in repetition order) or
  /// `repetitions_per_cell` is reached — the cap, not a target. The stop
  /// decision is journaled as a stop record and the adaptive parameters are
  /// part of the journal header, so resume replays the same decision
  /// bit-identically across thread counts and cache state. With threads > 1
  /// each *cell* becomes one sequential task (repetitions of a cell cannot
  /// be speculated past an unknown stop point), so parallelism is across
  /// cells.
  AdaptiveConfirmOptions adaptive;

  /// Cooperative cancellation (the CLI's SIGINT/SIGTERM path): when set and
  /// it becomes true, no *new* measurement starts; measurements already in
  /// flight complete and are journaled, and the result reports
  /// `complete = false`, exactly like `max_measurements` exhaustion. A
  /// later run resumes the remainder bit-identically. Not part of the
  /// journal header: cancellation changes when a campaign stops, never what
  /// it computes.
  const std::atomic<bool>* cancel = nullptr;

  /// Filesystem the journal is read, truncated, and appended through;
  /// null = the real filesystem. The injection point for `io::FaultVfs`
  /// crash/ENOSPC/torn-write torture. Also excluded from the journal
  /// header.
  io::Vfs* vfs = nullptr;

  // --- Observability (src/obs) -------------------------------------------
  // Neither sink participates in the journal header: instrumentation does
  // not change what a campaign computes, so a journal written with tracing
  // on resumes with tracing off and vice versa.

  /// Sinks the campaign records into; null records nothing, and exporting
  /// them (`Tracer::write_chrome_json`, `MetricsRegistry::write_json`) is
  /// the caller's job. Campaign instrumentation records per-measurement
  /// wall-time spans (lane = cell index, track 0), a `campaign.cell_wall_s`
  /// histogram, the journal-writer backlog as `campaign.journal_queue_depth`
  /// (with threads > 1 or a pool: the records waiting each time the writer
  /// takes a batch), and `campaign.measurements_executed` /
  /// `campaign.measurements_resumed` counters.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

struct CampaignCellResult {
  std::string config;
  std::string treatment;
  std::vector<double> values;
  stats::Summary summary;
  stats::ConfidenceInterval median_ci;

  // --- Adaptive CONFIRM outcome (meaningful only when the campaign ran
  // --- with options.adaptive.enabled) ------------------------------------
  /// True when the stopping rule was met before the repetition cap.
  bool adaptive_converged = false;
  /// Repetitions at which the rule was met (0 if never).
  std::size_t stop_repetitions = 0;
  /// The stopping-rule CI (options.adaptive quantile/confidence) over the
  /// final values; its `confidence` is the achieved coverage.
  stats::ConfidenceInterval confirm_ci;
};

struct CampaignResult {
  std::vector<CampaignCellResult> cells;  ///< In grid (not execution) order.
  std::vector<std::size_t> execution_order;

  /// Provenance (F5.5 "publish as much detail as possible"): the master
  /// seed and options that produced this result, so it can be re-derived
  /// from its own report.
  std::uint64_t seed = 0;
  bool seed_recorded = false;
  CampaignOptions options;

  /// False when `max_measurements` stopped the campaign before every
  /// (cell, repetition) had a value.
  bool complete = true;

  /// Measurements replayed from the journal rather than executed.
  std::size_t resumed_measurements = 0;

  /// Cells grouped by config, for per-config treatment comparisons.
  std::vector<std::size_t> cells_for(const std::string& config) const;

  /// Kruskal-Wallis across all treatments of one config: does the treatment
  /// (e.g. token budget) significantly affect this config at all?
  stats::TestResult treatment_effect(const std::string& config) const;

  /// Writes the long-format results table as CSV
  /// (config,treatment,repetition,value).
  void write_csv(std::ostream& os) const;
};

/// The RNG stream seed for one (cell, repetition) of a campaign with master
/// seed `master`. This is the contract that makes campaign values a pure
/// function of (cells, options, seed): resume, thread count, and the shard
/// worker a repetition lands on never change what it computes.
std::uint64_t campaign_repetition_seed(std::uint64_t master, std::size_t cell,
                                       int rep) noexcept;

/// The cell visit order `run_campaign` derives from (seed,
/// options.randomize_order): a seed-keyed permutation when randomizing, else
/// identity. The canonical journal's records appear in this order.
std::vector<std::size_t> campaign_execution_order(std::size_t cell_count,
                                                  const CampaignOptions& options,
                                                  std::uint64_t seed);

class CampaignRecords;

/// Receives each new journal record line (no newline), always on the thread
/// that called `run_cells`.
using RecordSink = std::function<void(const std::string&)>;

/// `run_campaign`'s task loop, which the shard worker runs for its assigned
/// cell. Measures, cell by cell in `order`, every repetition `records` does
/// not hold (adaptive cells: until the stopping rule holds), storing each
/// value in `records` and handing its record line, and a new stop record,
/// to `sink`. With threads = 1 and no pool the tasks run inline in order;
/// otherwise they run on the pool while this thread alone calls `sink`.
/// Honors `cancel` and `max_measurements` as `run_campaign` does, and
/// returns false when either cut a task short; every repetition that
/// finished has still reached `sink`. `order` must index into `cells`.
bool run_cells(const std::vector<CampaignCell>& cells,
               const CampaignOptions& options, std::uint64_t seed,
               const std::vector<std::size_t>& order, CampaignRecords& records,
               const RecordSink& sink);

/// Runs the campaign from a master seed. Execution order and every
/// repetition's RNG stream are derived from (seed, cell index, repetition),
/// so the result is a pure function of (cells, options, seed) — including
/// across interrupt/resume cycles through `options.journal_path`. Each
/// repetition calls the cell's `fresh()` first, so every measurement starts
/// from known conditions; cells are visited in randomized order when
/// requested.
CampaignResult run_campaign(std::vector<CampaignCell> cells,
                            const CampaignOptions& options, std::uint64_t seed);

/// Legacy entry point: draws the master seed from `rng` and delegates.
CampaignResult run_campaign(std::vector<CampaignCell> cells,
                            const CampaignOptions& options, stats::Rng& rng);

/// Renders the provenance line (seed, options, resume state) and the
/// per-cell summary table.
void print_campaign_summary(std::ostream& os, const CampaignResult& result);

}  // namespace cloudrepro::core
