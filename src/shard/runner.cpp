#include "shard/runner.h"

#include <map>
#include <stdexcept>

#include "core/confirm.h"
#include "core/journal.h"
#include "runtime/thread_pool.h"

namespace cloudrepro::shard {

namespace {

bool cancelled(const std::atomic<bool>* cancel) noexcept {
  return cancel && cancel->load(std::memory_order_relaxed);
}

}  // namespace

CellTaskResult run_cell_task(std::vector<core::CampaignCell>& cells,
                             const core::CampaignOptions& options,
                             std::uint64_t seed, const CellTask& task,
                             int threads, const std::atomic<bool>* cancel) {
  const std::size_t idx = task.cell;
  if (idx >= cells.size()) {
    throw std::invalid_argument{"run_cell_task: cell index out of range"};
  }
  if (!cells[idx].run_once || !cells[idx].fresh) {
    throw std::invalid_argument{"run_cell_task: cell callables must be set"};
  }
  const int cap = options.repetitions_per_cell;

  std::map<int, double> done;
  int stop_journaled = -1;
  for (const std::string& line : task.resume_lines) {
    core::JournalRecord record;
    if (!core::parse_journal_line(line, record)) continue;
    if (record.cell != idx) {
      throw std::invalid_argument{
          "run_cell_task: resume line for a different cell"};
    }
    if (record.kind == core::JournalRecord::Kind::kValue) {
      if (record.rep >= 0 && record.rep < cap) done[record.rep] = record.value;
    } else {
      stop_journaled = record.rep;
    }
  }

  CellTaskResult result;
  if (options.adaptive.enabled) {
    // Sequential by necessity: the stopping rule decides after every value
    // whether the next repetition exists. Resumed values replay through the
    // monitor so the stop decision is re-derived identically.
    core::ConfirmMonitor monitor{options.adaptive};
    for (int r = 0; r < cap; ++r) {
      double value = 0.0;
      if (const auto it = done.find(r); it != done.end()) {
        value = it->second;
      } else {
        if (cancelled(cancel)) return result;
        cells[idx].fresh();
        stats::Rng rep_rng{core::campaign_repetition_seed(seed, idx, r)};
        value = cells[idx].run_once(rep_rng);
        result.lines.push_back(core::journal_line({idx, r, value}));
        ++result.executed;
      }
      if (monitor.add(value)) {
        // Re-emitting a stop lost to a torn tail heals it, exactly as
        // run_campaign does on resume.
        if (stop_journaled < 0) {
          result.lines.push_back(core::journal_line(core::journal_stop_record(
              idx, static_cast<int>(monitor.stop_repetitions()))));
        }
        break;
      }
    }
    result.complete = true;
    return result;
  }

  // Non-adaptive: the pending repetition set is known up front, so it
  // parallelizes into pre-assigned slots; lines are emitted rep-ascending
  // regardless of completion order. A cancelled cell hands back every slot
  // that finished, so its progress survives the interruption.
  std::vector<int> pending;
  for (int r = 0; r < cap; ++r) {
    if (done.find(r) == done.end()) pending.push_back(r);
  }

  std::vector<double> values(pending.size());
  std::vector<char> ran(pending.size(), 0);
  runtime::parallel_for_each(threads, pending.size(), [&](std::size_t t) {
    if (cancelled(cancel)) return;
    const int r = pending[t];
    cells[idx].fresh();
    stats::Rng rep_rng{core::campaign_repetition_seed(seed, idx, r)};
    values[t] = cells[idx].run_once(rep_rng);
    ran[t] = 1;
  });
  for (std::size_t t = 0; t < pending.size(); ++t) {
    if (!ran[t]) continue;
    result.lines.push_back(core::journal_line({idx, pending[t], values[t]}));
    ++result.executed;
  }
  result.complete = result.executed == pending.size();
  return result;
}

}  // namespace cloudrepro::shard
