#include "shard/plan.h"

#include <utility>

#include "core/confirm.h"

namespace cloudrepro::shard {

ShardPlan::ShardPlan(const std::vector<core::CampaignCell>& cells,
                     const core::CampaignOptions& options, std::uint64_t seed)
    : cells_(cells.size()),
      options_(options),
      header_(core::journal_header(cells, options, seed)),
      execution_order_(
          core::campaign_execution_order(cells.size(), options, seed)) {
  if (cells.empty()) throw std::invalid_argument{"ShardPlan: no cells"};
  if (options.repetitions_per_cell < 1) {
    throw std::invalid_argument{"ShardPlan: need at least one repetition"};
  }
}

ShardPlan::Canonical ShardPlan::canonical(std::size_t cell) const {
  const CellState& state = cells_[cell];
  const int cap = options_.repetitions_per_cell;
  Canonical out;
  while (state.values.find(out.prefix) != state.values.end()) ++out.prefix;

  if (!options_.adaptive.enabled) {
    out.complete = out.prefix == cap;
    return out;
  }

  // The stopping rule is a pure function of the cell's value prefix, so the
  // plan re-derives the stop point itself instead of trusting worker
  // claims; a journaled stop record is a cross-check, and a stop record
  // lost to a torn tail is healed at merge (exactly as `run_campaign`
  // re-emits it on resume).
  core::ConfirmMonitor monitor{options_.adaptive};
  int converged_at = -1;
  for (int r = 0; r < out.prefix; ++r) {
    if (monitor.add(state.values.at(r))) {
      converged_at = static_cast<int>(monitor.stop_repetitions());
      break;
    }
  }
  if (converged_at >= 0) {
    if (!state.values.empty() && state.values.rbegin()->first >= converged_at) {
      throw ShardMergeError{
          "beyond_stop",
          "cell " + std::to_string(cell) + " has a value at repetition " +
              std::to_string(state.values.rbegin()->first) +
              " past its stop point " + std::to_string(converged_at)};
    }
    if (state.stop >= 0 && state.stop != converged_at) {
      throw ShardMergeError{
          "conflict", "cell " + std::to_string(cell) + " stop record claims " +
                          std::to_string(state.stop) +
                          " repetitions but the stopping rule stops at " +
                          std::to_string(converged_at)};
    }
    out.stop = converged_at;
    out.complete = true;
    return out;
  }
  if (state.stop >= 0 && out.prefix >= state.stop) {
    throw ShardMergeError{
        "conflict", "cell " + std::to_string(cell) + " stop record claims " +
                        std::to_string(state.stop) +
                        " repetitions but the stopping rule does not stop there"};
  }
  out.complete = out.prefix == cap;
  return out;
}

void ShardPlan::absorb_replay(const core::JournalReplay& replay) {
  for (const auto& [key, value] : replay.done) {
    const auto [cell, rep] = key;
    if (cell >= cells_.size() || rep < 0 ||
        rep >= options_.repetitions_per_cell) {
      throw ShardMergeError{"range", "replayed record out of range"};
    }
    cells_[cell].values[rep] = value;
  }
  for (const auto& [cell, stop] : replay.stops) {
    if (cell >= cells_.size()) {
      throw ShardMergeError{"range", "replayed stop record out of range"};
    }
    cells_[cell].stop = stop;
  }
  for (std::size_t cell = 0; cell < cells_.size(); ++cell) canonical(cell);
}

std::vector<std::string> ShardPlan::resume_lines(std::size_t cell) const {
  if (cell >= cells_.size()) {
    throw ShardMergeError{"range", "resume_lines: cell out of range"};
  }
  const CellState& state = cells_[cell];
  std::vector<std::string> out;
  out.reserve(state.values.size() + 1);
  for (const auto& [rep, value] : state.values) {
    out.push_back(core::journal_line({cell, rep, value}));
  }
  if (state.stop >= 0) {
    out.push_back(core::journal_line(core::journal_stop_record(cell, state.stop)));
  }
  return out;
}

ShardPlan::PushOutcome ShardPlan::push(std::size_t cell,
                                       const std::vector<std::string>& lines) {
  if (cell >= cells_.size()) {
    throw ShardMergeError{"range", "push: cell index " + std::to_string(cell) +
                                       " out of range"};
  }
  const int cap = options_.repetitions_per_cell;
  PushOutcome outcome;

  // Stage against a copy, commit by swap: a push that throws commits
  // nothing, so a conflicting worker cannot leave the plan half-poisoned.
  CellState staged = cells_[cell];
  std::size_t parsed = 0;
  for (const std::string& line : lines) {
    core::JournalRecord record;
    if (!core::parse_journal_line(line, record)) {
      // Torn worker tail: the valid prefix stands, the rest of this push is
      // unparseable garbage (same accept-valid-prefix rule the journal's
      // crash recovery uses). The dropped records simply re-run.
      outcome.dropped = lines.size() - parsed;
      break;
    }
    ++parsed;
    if (record.cell != cell) {
      throw ShardMergeError{"cell_mismatch",
                            "push for cell " + std::to_string(cell) +
                                " contains a record for cell " +
                                std::to_string(record.cell)};
    }
    if (record.kind == core::JournalRecord::Kind::kValue) {
      if (record.rep < 0 || record.rep >= cap) {
        throw ShardMergeError{"range",
                              "record repetition " + std::to_string(record.rep) +
                                  " outside [0, " + std::to_string(cap) + ")"};
      }
      if (const auto it = staged.values.find(record.rep);
          it != staged.values.end()) {
        if (it->second == record.value) {
          ++outcome.duplicates;
          continue;
        }
        throw ShardMergeError{
            "conflict",
            "cell " + std::to_string(cell) + " repetition " +
                std::to_string(record.rep) +
                " already has a different value — two workers disagree on a "
                "deterministic measurement"};
      }
      staged.values[record.rep] = record.value;
      ++outcome.accepted;
    } else {
      if (!options_.adaptive.enabled) {
        throw ShardMergeError{"unexpected_stop",
                              "stop record in a non-adaptive campaign"};
      }
      if (record.rep < 1 || record.rep > cap) {
        throw ShardMergeError{"range", "stop count " +
                                           std::to_string(record.rep) +
                                           " outside [1, " +
                                           std::to_string(cap) + "]"};
      }
      if (staged.stop >= 0) {
        if (staged.stop == record.rep) {
          ++outcome.duplicates;
          continue;
        }
        throw ShardMergeError{"conflict",
                              "cell " + std::to_string(cell) +
                                  " has two disagreeing stop records"};
      }
      staged.stop = record.rep;
      ++outcome.accepted;
    }
  }

  // Validate the staged state as a whole (prefix/stop coherence) before
  // committing; `canonical` throws on contradiction.
  std::swap(cells_[cell], staged);
  try {
    const Canonical c = canonical(cell);
    outcome.cell_complete = c.complete;
  } catch (...) {
    std::swap(cells_[cell], staged);  // Roll back.
    throw;
  }
  outcome.campaign_complete = complete();
  return outcome;
}

bool ShardPlan::cell_complete(std::size_t cell) const {
  return canonical(cell).complete;
}

std::size_t ShardPlan::completed_cells() const {
  std::size_t done = 0;
  for (std::size_t cell = 0; cell < cells_.size(); ++cell) {
    if (canonical(cell).complete) ++done;
  }
  return done;
}

bool ShardPlan::complete() const { return completed_cells() == cells_.size(); }

std::size_t ShardPlan::cell_records(std::size_t cell) const {
  return cells_[cell].values.size();
}

std::string ShardPlan::merge() const {
  std::string out = header_;
  out += '\n';
  const int cap = options_.repetitions_per_cell;
  for (const std::size_t cell : execution_order_) {
    const Canonical c = canonical(cell);
    if (!c.complete) {
      throw ShardMergeError{"incomplete",
                            "merge before completion: cell " +
                                std::to_string(cell) + " has " +
                                std::to_string(cells_[cell].values.size()) +
                                " of its records"};
    }
    const int end = c.stop >= 0 ? c.stop : cap;
    for (int r = 0; r < end; ++r) {
      out += core::journal_line({cell, r, cells_[cell].values.at(r)});
      out += '\n';
    }
    if (c.stop >= 0) {
      out += core::journal_line(core::journal_stop_record(cell, c.stop));
      out += '\n';
    }
  }
  return out;
}

}  // namespace cloudrepro::shard
