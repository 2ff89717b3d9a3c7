#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/journal.h"

namespace cloudrepro::shard {

/// Sharded distributed campaigns: split a scenario grid's cells across
/// worker processes (and machines), stream each worker's journal records
/// back, and merge them into one journal whose bytes — and therefore whose
/// summary — are identical to a single-node serial run.
///
/// The whole design leans on one invariant from `core::run_campaign`: every
/// measurement is a pure function of (cells, options, seed) via
/// `campaign_repetition_seed`, so *where* a repetition executes never
/// changes its value. That turns the classically hard parts of distribution
/// into bookkeeping:
///
///  - exactly-once is free: a reassigned cell re-executes to byte-identical
///    records, so duplicates are detected (and discarded) by equality;
///  - a record that is *not* byte-identical at the same (cell, repetition)
///    is proof of corruption or version skew, and surfaces as a typed
///    `ShardMergeError` instead of silent divergence;
///  - merge order is not negotiated: the canonical journal is the serial
///    reference order (cells in `campaign_execution_order`, repetitions
///    ascending, adaptive stop records inline after their triggering
///    value), reproducible from the record set alone.

/// A merge invariant was violated: conflicting records, records beyond an
/// adaptive stop point, or a merge attempted before completion. Never
/// thrown for torn/garbled record *tails* — those are truncated (the
/// records they held simply re-run), matching the journal's crash model.
class ShardMergeError : public std::runtime_error {
 public:
  ShardMergeError(std::string code, const std::string& message)
      : std::runtime_error(message), code_(std::move(code)) {}
  /// Stable discriminator: "conflict", "range", "beyond_stop",
  /// "unexpected_stop", "cell_mismatch", "incomplete".
  const std::string& code() const noexcept { return code_; }

 private:
  std::string code_;
};

/// Authoritative record set for one distributed campaign, owned by the
/// coordinator. Accepts journal record lines in any arrival order and from
/// any worker; answers resume prefixes for (re)assignment; decides per-cell
/// and campaign completeness; and emits the canonical merged journal.
///
/// Not thread-safe: the coordinator owns it on the serve reactor thread.
class ShardPlan {
 public:
  /// `cells` is only read for its labels (header) and count; the callables
  /// are not retained. `options`/`seed` must be exactly what the equivalent
  /// single-node `run_campaign` would receive.
  ShardPlan(const std::vector<core::CampaignCell>& cells,
            const core::CampaignOptions& options, std::uint64_t seed);

  const std::string& header() const noexcept { return header_; }
  std::size_t cell_count() const noexcept { return cells_.size(); }
  const std::vector<std::size_t>& execution_order() const noexcept {
    return execution_order_;
  }

  /// Pre-seeds the plan from an existing journal replay (warm cache / a
  /// partial single-node run being continued by a distributed one).
  void absorb_replay(const core::JournalReplay& replay);

  /// Record lines already known for `cell` (values rep-ascending, then the
  /// stop record if journaled) — the replay prefix shipped with an
  /// assignment so a worker re-executes only the remainder.
  std::vector<std::string> resume_lines(std::size_t cell) const;

  struct PushOutcome {
    std::size_t accepted = 0;    ///< Fresh records stored.
    std::size_t duplicates = 0;  ///< Byte-identical re-deliveries discarded.
    std::size_t dropped = 0;     ///< Torn-tail lines discarded unparsed.
    bool cell_complete = false;
    bool campaign_complete = false;
  };

  /// Ingests record lines for one cell. Lines may arrive in any order and
  /// may duplicate known records (byte-identical duplicates are counted and
  /// discarded). The first malformed or checksum-failing line ends the
  /// accepted prefix — it and everything after it in this push is dropped
  /// as a torn worker tail (`dropped`), never an error. Conflicting
  /// records, out-of-range repetitions, records for a different cell, and
  /// stop records that contradict the stopping rule throw ShardMergeError
  /// with nothing committed (strong exception safety).
  PushOutcome push(std::size_t cell, const std::vector<std::string>& lines);

  /// True when the cell's record set proves it finished: a contiguous
  /// repetition prefix reaching the cap, or (adaptive) reaching the
  /// stopping rule's journaled/derived stop point.
  bool cell_complete(std::size_t cell) const;
  std::size_t completed_cells() const;
  bool complete() const;
  /// Known values for `cell` (diagnostics / tests).
  std::size_t cell_records(std::size_t cell) const;

  /// The canonical merged journal (header + records in serial reference
  /// order, trailing newline included). Byte-identical to what a
  /// single-node `threads=1` run would have written. Throws
  /// ShardMergeError{"incomplete"} unless `complete()`.
  std::string merge() const;

 private:
  struct CellState {
    std::map<int, double> values;  ///< rep -> value.
    int stop = -1;                 ///< Journaled stop count; -1 = none.
  };

  /// The cell's canonical content, derived from its records: the contiguous
  /// prefix length, and the stop count the stopping rule implies (-1 when
  /// none). Throws when recorded values extend beyond the derived stop.
  struct Canonical {
    int prefix = 0;  ///< Contiguous values from repetition 0.
    int stop = -1;   ///< Stopping-rule stop count; -1 = runs to cap.
    bool complete = false;
  };
  Canonical canonical(std::size_t cell) const;

  std::vector<CellState> cells_;
  core::CampaignOptions options_;
  std::string header_;
  std::vector<std::size_t> execution_order_;
};

}  // namespace cloudrepro::shard
