#include "core/campaign.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/journal.h"
#include "core/report.h"
#include "io/vfs.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"

namespace cloudrepro::core {

namespace {

/// SplitMix64-style mixer for deriving independent sub-seeds. Each
/// (cell, repetition) gets its own stream, which is what makes journal
/// resume bit-identical: replaying a completed repetition consumes no
/// draws from anyone else's stream.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool cancelled(const CampaignOptions& options) noexcept {
  return options.cancel && options.cancel->load(std::memory_order_relaxed);
}

/// One unit of campaign work: `count` consecutive repetitions of `cell`
/// from repetition `first`. Non-adaptive tasks are single repetitions;
/// adaptive tasks are whole cells, because the stopping rule decides after
/// every value whether the next repetition exists.
struct CampaignTask {
  std::size_t cell = 0;
  int first = 0;
  int count = 0;
};

/// The task loop's instrumentation: per-measurement spans and counters,
/// stamped in wall seconds since `t0`. Null sinks record nothing.
struct TaskObs {
  obs::Tracer* tracer = nullptr;
  obs::Histogram* cell_wall = nullptr;
  obs::Histogram* queue_depth = nullptr;
  obs::Counter* executed = nullptr;
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();

  explicit TaskObs(const CampaignOptions& options) : tracer(options.tracer) {
    if (auto* metrics = options.metrics) {
      cell_wall = &metrics->histogram("campaign.cell_wall_s");
      queue_depth = &metrics->histogram("campaign.journal_queue_depth");
      executed = &metrics->counter("campaign.measurements_executed");
    }
  }

  double wall_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  }
};

bool run_tasks(const std::vector<CampaignCell>& cells,
               const CampaignOptions& options, std::uint64_t seed,
               const std::vector<std::size_t>& order, CampaignRecords& records,
               const RecordSink& sink, const TaskObs& obs) {
  // The work list, in `order`. Adaptive cells run whole: their repetitions
  // must go in order, so the executed set is a per-cell prefix at any
  // interruption point and the ConfirmMonitor, a pure function of the
  // cell's value sequence, re-derives the journaled stop on resume.
  // Otherwise every pending repetition is its own task, and the list is cut
  // to `max_measurements`, so the executed set is the same at any thread
  // count; each task derives its own repetition seed, so every value is too.
  const int cap = options.repetitions_per_cell;
  std::vector<CampaignTask> tasks;
  for (const auto idx : order) {
    if (options.adaptive.enabled) {
      tasks.push_back({idx, 0, cap});
      continue;
    }
    for (int r = 0; r < cap; ++r) {
      if (!records.has(idx, r)) tasks.push_back({idx, r, 1});
    }
  }
  if (!options.adaptive.enabled && options.max_measurements > 0 &&
      tasks.size() > static_cast<std::size_t>(options.max_measurements)) {
    tasks.resize(static_cast<std::size_t>(options.max_measurements));
  }

  // Adaptive cells claim the measurement budget one repetition at a time.
  const bool metered = options.adaptive.enabled && options.max_measurements > 0;
  std::atomic<int> budget{options.max_measurements};
  // Set by a failed task or record write: no new measurement starts.
  std::atomic<bool> failed{false};

  // Runs one task, handing each journal record to `emit` as soon as it
  // exists. Returns false when cancellation, a failure or the budget cut
  // the task short.
  const auto run_task = [&](const CampaignTask& task, const auto& emit) {
    const std::size_t idx = task.cell;
    std::optional<ConfirmMonitor> monitor;
    if (options.adaptive.enabled) monitor.emplace(options.adaptive);
    for (int r = task.first; r < task.first + task.count; ++r) {
      if (!records.has(idx, r)) {
        if (cancelled(options) || failed.load(std::memory_order_relaxed) ||
            (metered && budget.fetch_sub(1, std::memory_order_relaxed) <= 0)) {
          return false;
        }
        const double m_start = obs.wall_s();
        cells[idx].fresh();
        stats::Rng rep_rng{campaign_repetition_seed(seed, idx, r)};
        const double value = cells[idx].run_once(rep_rng);
        records.measured(idx, r, value);
        const double m_dur = obs.wall_s() - m_start;
        if (obs.cell_wall) obs.cell_wall->observe(m_dur);
        if (obs.executed) obs.executed->add();
        if (obs.tracer) {
          obs.tracer->complete(m_start, m_dur, "campaign", "measurement",
                               {"cell", static_cast<double>(idx)},
                               {"rep", static_cast<double>(r)},
                               static_cast<std::uint32_t>(idx), 0);
        }
        emit(journal_line({idx, r, value}));
      }
      if (monitor && monitor->add(records.value(idx, r))) {
        const int stop = static_cast<int>(monitor->stop_repetitions());
        records.converged(idx, stop);
        // Re-emitting after a torn tail heals a lost stop record; when the
        // record already replayed, the decision is simply re-derived.
        if (!records.has_stop(idx)) {
          emit(journal_line(journal_stop_record(idx, stop)));
        }
        break;
      }
    }
    return true;
  };

  // An external pool (cloudrepro suite's shared thread budget) overrides
  // the `threads` knob; with one the tasks go to the pool even at a single
  // worker, since the caller owns the scheduling decision.
  if (!options.pool &&
      runtime::ThreadPool::resolve_thread_count(options.threads) <= 1) {
    // Serial reference: the tasks run inline in order, each record handed
    // over as its measurement finishes, up to the first task that could not
    // finish.
    for (const auto& task : tasks) {
      if (!run_task(task, sink)) return false;
    }
    return true;
  }
  if (tasks.empty()) return true;

  // Workers push finished records onto `lines`; this thread, the only one
  // calling `sink`, swaps the batch out and hands it over. A task's
  // terminal act is finished++/notify *under the mutex*, so once this
  // thread observes finished == tasks.size() while holding it, no worker
  // can still touch this frame — which is what lets an external
  // (suite-shared) pool outlive the campaign without a wait_idle() that
  // would block on other campaigns' tasks.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> lines;  // Guarded by mu.
  std::size_t finished = 0;        // Guarded by mu.
  bool all_ran = true;             // Guarded by mu.
  std::exception_ptr error;        // Guarded by mu: the first task failure.
  const auto push_line = [&](std::string line) {
    std::lock_guard<std::mutex> lock{mu};
    lines.push_back(std::move(line));
    cv.notify_one();
  };

  std::unique_ptr<runtime::ThreadPool> owned_pool;
  runtime::ThreadPool* pool = options.pool;
  if (!pool) {
    owned_pool = std::make_unique<runtime::ThreadPool>(options.threads);
    pool = owned_pool.get();
  }
  for (const auto& task : tasks) {
    pool->submit([&, task] {
      bool ran = false;
      std::exception_ptr task_error;
      try {
        ran = run_task(task, push_line);
      } catch (...) {
        task_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
      std::lock_guard<std::mutex> lock{mu};
      if (task_error && !error) error = task_error;
      all_ran = all_ran && ran;
      ++finished;
      cv.notify_one();
    });
  }

  // A failed record write must not abandon in-flight tasks (they reference
  // this frame): stop new measurements, keep draining, and surface the
  // error only after every task has landed.
  std::exception_ptr sink_error;
  std::vector<std::string> batch;
  for (bool landed = false; !landed;) {
    {
      std::unique_lock<std::mutex> lock{mu};
      cv.wait(lock, [&] { return !lines.empty() || finished == tasks.size(); });
      batch.swap(lines);
      landed = finished == tasks.size();
    }
    // Backlog at this swap: how far the workers ran ahead of the writer.
    if (obs.queue_depth && !batch.empty()) {
      obs.queue_depth->observe(static_cast<double>(batch.size()));
    }
    for (const auto& line : batch) {
      if (sink_error) break;
      try {
        sink(line);
      } catch (...) {
        sink_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
    batch.clear();
  }
  if (error) std::rethrow_exception(error);
  if (sink_error) std::rethrow_exception(sink_error);
  return all_ran;
}

}  // namespace

bool run_cells(const std::vector<CampaignCell>& cells,
               const CampaignOptions& options, std::uint64_t seed,
               const std::vector<std::size_t>& order, CampaignRecords& records,
               const RecordSink& sink) {
  return run_tasks(cells, options, seed, order, records, sink, TaskObs{options});
}

std::uint64_t campaign_repetition_seed(std::uint64_t master, std::size_t cell,
                                       int rep) noexcept {
  return mix(mix(master, cell + 1), static_cast<std::uint64_t>(rep) + 1);
}

std::vector<std::size_t> campaign_execution_order(std::size_t cell_count,
                                                  const CampaignOptions& options,
                                                  std::uint64_t seed) {
  std::vector<std::size_t> order;
  if (options.randomize_order) {
    stats::Rng order_rng{mix(seed, 0)};
    order = order_rng.permutation(cell_count);
  } else {
    order.resize(cell_count);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  }
  return order;
}

std::vector<std::size_t> CampaignResult::cells_for(const std::string& config) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].config == config) out.push_back(i);
  }
  return out;
}

stats::TestResult CampaignResult::treatment_effect(const std::string& config) const {
  const auto indices = cells_for(config);
  if (indices.size() < 2) {
    throw std::invalid_argument{
        "treatment_effect: config '" + config + "' has fewer than 2 treatments"};
  }
  std::vector<std::vector<double>> groups;
  groups.reserve(indices.size());
  for (const auto i : indices) groups.push_back(cells[i].values);
  return stats::kruskal_wallis(groups);
}

void CampaignResult::write_csv(std::ostream& os) const {
  os << "config,treatment,repetition,value\n";
  for (const auto& cell : cells) {
    for (std::size_t r = 0; r < cell.values.size(); ++r) {
      os << cell.config << ',' << cell.treatment << ',' << r << ','
         << cell.values[r] << '\n';
    }
  }
}

CampaignResult run_campaign(std::vector<CampaignCell> cells,
                            const CampaignOptions& options, std::uint64_t seed) {
  if (cells.empty()) throw std::invalid_argument{"run_campaign: no cells"};
  if (options.repetitions_per_cell < 1) {
    throw std::invalid_argument{"run_campaign: need at least one repetition per cell"};
  }
  if (options.max_measurements < 0) {
    throw std::invalid_argument{"run_campaign: max_measurements must be >= 0"};
  }
  if (options.threads < 0) {
    throw std::invalid_argument{"run_campaign: threads must be >= 0"};
  }
  for (const auto& cell : cells) {
    if (!cell.run_once || !cell.fresh) {
      throw std::invalid_argument{"run_campaign: cell callables must be set"};
    }
  }
  if (options.adaptive.enabled) {
    // Fail here, on the caller's thread, rather than from the first
    // ConfirmMonitor constructed inside a worker.
    if (options.adaptive.error_bound <= 0.0) {
      throw std::invalid_argument{"run_campaign: adaptive error bound must be positive"};
    }
    if (options.adaptive.quantile <= 0.0 || options.adaptive.quantile >= 1.0) {
      throw std::invalid_argument{"run_campaign: adaptive quantile must be in (0, 1)"};
    }
    if (options.adaptive.confidence <= 0.0 || options.adaptive.confidence >= 1.0) {
      throw std::invalid_argument{"run_campaign: adaptive confidence must be in (0, 1)"};
    }
  }

  // All campaign events live in the wall-clock domain (track 0, seconds
  // since campaign start) — per-measurement sim time is the cells' business,
  // not ours.
  const TaskObs obs{options};

  // Randomized execution order over (cell, repetition) pairs would break
  // per-cell warm-up symmetry; the paper randomizes at the experiment level,
  // so we shuffle cells and run each cell's repetitions consecutively with
  // fresh state per repetition. The order comes from its own derived stream
  // so it matches across interrupt/resume cycles.
  CampaignRecords records{cells, options, seed};
  CampaignResult result;
  result.seed = seed;
  result.seed_recorded = true;
  result.options = options;
  result.execution_order = records.execution_order();
  result.cells.resize(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    result.cells[i].config = cells[i].config;
    result.cells[i].treatment = cells[i].treatment;
  }

  // Journal: replay the checksummed valid prefix, truncate any torn or
  // corrupt tail, then append new measurements as they finish. All journal
  // I/O goes through the (injectable) vfs so crash torture can interpose.
  io::Vfs& vfs = options.vfs ? *options.vfs : io::real_vfs();
  std::unique_ptr<io::WritableFile> journal;
  if (!options.journal_path.empty()) {
    const auto replay =
        replay_journal(vfs, options.journal_path, records.header(),
                       cells.size(), options.repetitions_per_cell);
    records.absorb(replay);
    if (replay.corrupt_tail) {
      // Keep only the intact record prefix; the measurements the tail held
      // simply re-run. This is the torn-write recovery path.
      vfs.truncate(options.journal_path, replay.valid_bytes);
    }
    journal = vfs.open_write(options.journal_path, io::WriteMode::kAppend);
    if (replay.valid_bytes == 0) journal->append(records.header() + "\n");
  }

  run_tasks(cells, options, seed, result.execution_order, records,
            [&](const std::string& line) {
              if (journal) journal->append(line + "\n");
            },
            obs);
  records.assemble(result);

  if (journal) {
    // Durability point: everything journaled so far survives a crash from
    // here on. The caller publishes the summary only after this returns, so
    // fsync-journal happens-before publish-summary.
    journal->sync();
    journal->close();
  }

  for (auto& out : result.cells) {
    if (!out.values.empty()) {
      out.summary = stats::summarize(out.values);
      out.median_ci = stats::median_ci(out.values, options.confidence);
      if (options.adaptive.enabled) {
        out.confirm_ci = stats::quantile_ci(out.values, options.adaptive.quantile,
                                            options.adaptive.confidence);
      }
    }
  }

  result.complete = true;
  for (const auto& cell : result.cells) {
    const bool at_cap = cell.values.size() ==
                        static_cast<std::size_t>(options.repetitions_per_cell);
    // An adaptively converged cell is complete at its stop point: the
    // remaining repetitions were deliberately not run, not interrupted.
    if (!at_cap && !(options.adaptive.enabled && cell.adaptive_converged)) {
      result.complete = false;
      break;
    }
  }

  if (options.metrics && result.resumed_measurements > 0) {
    options.metrics->counter("campaign.measurements_resumed")
        .add(static_cast<double>(result.resumed_measurements));
  }
  if (obs.tracer) {
    obs.tracer->complete(0.0, obs.wall_s(), "campaign", "campaign",
                         {"cells", static_cast<double>(cells.size())},
                         {"reps", static_cast<double>(options.repetitions_per_cell)},
                         0, 0);
  }
  return result;
}

CampaignResult run_campaign(std::vector<CampaignCell> cells,
                            const CampaignOptions& options, stats::Rng& rng) {
  return run_campaign(std::move(cells), options, rng.next_u64());
}

void print_campaign_summary(std::ostream& os, const CampaignResult& result) {
  if (result.seed_recorded) {
    os << "campaign: seed=" << result.seed
       << " repetitions_per_cell=" << result.options.repetitions_per_cell
       << " randomize_order=" << (result.options.randomize_order ? "true" : "false")
       << " confidence=" << result.options.confidence;
    if (!result.options.journal_path.empty()) {
      os << " journal=" << result.options.journal_path.string();
    }
    if (result.resumed_measurements > 0) {
      os << " resumed=" << result.resumed_measurements;
    }
    if (!result.complete) os << " [INCOMPLETE]";
    os << '\n';
  }
  TablePrinter t{{"Config", "Treatment", "Median [95% CI]", "Mean", "CoV"}};
  for (const auto& cell : result.cells) {
    t.add_row({cell.config, cell.treatment, fmt_ci(cell.median_ci, 1),
               fmt(cell.summary.mean, 1),
               fmt_pct(cell.summary.coefficient_of_variation)});
  }
  t.print(os);
}

}  // namespace cloudrepro::core
