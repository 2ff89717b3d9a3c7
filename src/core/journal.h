#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.h"

namespace cloudrepro::io {
class Vfs;
}  // namespace cloudrepro::io

namespace cloudrepro::core {

/// The campaign journal's record layer: one JSONL line per completed
/// measurement, each carrying a CRC-32 of its own payload. The checksum is
/// what turns "a crash may keep any byte prefix" (io::Vfs's durability
/// model) into "resume sees exactly the records that were fully written":
/// replay accepts records until the first malformed or checksum-failing
/// line and truncates the rest — a torn or bit-rotted *tail* costs only the
/// measurements it held, never the whole entry.
///
/// Format (version 2 — version 1 had no checksums):
///   line 1:  the verbatim header from `journal_header` below
///   line 2+: {"cell":C,"rep":R,"value":V,"crc":"xxxxxxxx"}\n
///        or: {"cell":C,"stop":N,"crc":"xxxxxxxx"}\n
/// where crc is crc32_hex of the bytes before `,"crc"`. A record is valid
/// only when newline-terminated; an unterminated final line re-runs.
///
/// A stop record journals an adaptive CONFIRM stop decision: cell C met its
/// CI bound after N repetitions, so reps N..cap were never run. Journaling
/// the *decision* (not just the absence of further values) is what keeps
/// resume bit-identical: a resumed campaign replays the stop instead of
/// re-evaluating the rule against a possibly different execution schedule.

/// The journal's inputs do not match this campaign (different seed,
/// options, or cell grid — or a corrupted header). Distinct from plain
/// runtime_error/IoError so callers can evict-and-retry on a mismatch
/// without swallowing real I/O failures like ENOSPC.
class JournalMismatch : public std::runtime_error {
 public:
  explicit JournalMismatch(const std::string& what) : std::runtime_error(what) {}
};

struct JournalRecord {
  enum class Kind { kValue, kStop };

  std::size_t cell = 0;
  /// Repetition index for kValue; the stop repetition count for kStop.
  int rep = 0;
  double value = 0.0;
  /// Appended after the original fields so existing aggregate initializers
  /// ({cell, rep, value}) keep meaning what they meant.
  Kind kind = Kind::kValue;
};

/// Convenience constructor for an adaptive stop record.
inline JournalRecord journal_stop_record(std::size_t cell, int stop_repetitions) {
  return {cell, stop_repetitions, 0.0, JournalRecord::Kind::kStop};
}

/// Doubles formatted with 17 significant digits — the shortest length
/// guaranteed to round-trip an IEEE binary64 exactly, which the
/// resume-equals-uninterrupted property depends on.
std::string journal_fmt_double(double value);

/// The header line: everything the campaign is a function of (seed,
/// options, cell grid). Resume compares it verbatim.
std::string journal_header(const std::vector<CampaignCell>& cells,
                           const CampaignOptions& options, std::uint64_t seed);

/// One checksummed record line (no trailing newline).
std::string journal_line(const JournalRecord& record);

/// Strict parse + checksum verification; false on any malformation.
bool parse_journal_line(const std::string& line, JournalRecord& out);

struct JournalReplay {
  /// Completed (cell, repetition) -> value, from the valid record prefix.
  std::map<std::pair<std::size_t, int>, double> done;
  /// Journaled adaptive stop decisions: cell -> stop repetition count.
  std::map<std::size_t, int> stops;
  /// Byte length of the valid prefix (header + intact records, including
  /// their newlines). Appending must continue from here.
  std::uintmax_t valid_bytes = 0;
  /// True when bytes beyond `valid_bytes` existed (torn or corrupt tail);
  /// the caller truncates to `valid_bytes` before appending.
  bool corrupt_tail = false;
};

/// Replays a journal through `vfs`, accepting the longest valid prefix.
/// Throws JournalMismatch when the header differs from `expected_header` or
/// a checksummed record is out of range for (cell_count, repetitions) —
/// both mean the journal belongs to a different campaign, not that bytes
/// were lost. An absent or empty file replays as zero records.
JournalReplay replay_journal(io::Vfs& vfs, const std::filesystem::path& path,
                             const std::string& expected_header,
                             std::size_t cell_count, int repetitions);

/// Pushed records broke an invariant of the record set. Never thrown for
/// torn or garbled lines: those are dropped, and the measurements they held
/// simply run again, matching the journal's crash model.
class RecordError : public std::runtime_error {
 public:
  RecordError(std::string code, const std::string& message)
      : std::runtime_error(message), code_(std::move(code)) {}
  /// Stable discriminator: "conflict" (two values for one repetition, two
  /// stop records, or a stop record the stopping rule contradicts), "range",
  /// "cell_mismatch", "unexpected_stop" (a stop record in a non-adaptive
  /// campaign) or "beyond_stop" (a value past the rule's stop point).
  const std::string& code() const noexcept { return code_; }

 private:
  std::string code_;
};

/// One campaign's journal records in memory: every cell's values in
/// pre-sized repetition slots, plus the stop record journaled for it.
///
/// `run_campaign` replays its journal into one, fills the missing slots
/// through its task loop, and assembles its result from it. The shard
/// coordinator keeps one per distributed campaign: worker pushes merge into
/// it in any order, it ships each cell's known records with an assignment,
/// it decides completion, and it writes the journal the campaign is
/// published from. Because a measurement is a pure function of (cell,
/// repetition, seed), a record re-delivered by a reassigned worker is
/// byte-identical and discarded, while a different value for a known
/// repetition is proof of corruption or version skew. The adaptive stopping
/// rule is a pure function of a cell's value prefix, so completion derives
/// the stop point instead of trusting a stop record.
///
/// Not thread-safe, except that the task loop's workers fill distinct slots
/// through `measured` concurrently.
class CampaignRecords {
 public:
  /// `cells` is read for its labels and count only. `options` and `seed`
  /// are exactly what `run_campaign` receives.
  CampaignRecords(const std::vector<CampaignCell>& cells,
                  const CampaignOptions& options, std::uint64_t seed);

  /// The journal's header line, without its newline.
  const std::string& header() const noexcept { return header_; }
  /// `campaign_execution_order`: the order of the journal's cells.
  const std::vector<std::size_t>& execution_order() const noexcept {
    return order_;
  }
  std::size_t cell_count() const noexcept { return cells_.size(); }

  /// Takes a journal replay in as it stands. Unlike `push` it validates
  /// nothing: a journal whose stop record disagrees with its values still
  /// resumes, because the task loop re-derives every stop.
  void absorb(const JournalReplay& replay);

  struct PushOutcome {
    std::size_t accepted = 0;    ///< New records stored.
    std::size_t duplicates = 0;  ///< Byte-identical re-deliveries discarded.
    std::size_t dropped = 0;     ///< Lines from the first torn one on.
    bool cell_complete = false;
  };

  /// Takes record lines for one cell, in any order, duplicates included.
  /// The first malformed or checksum-failing line ends the accepted prefix:
  /// it and every line after it are dropped as a torn tail. A record that
  /// conflicts, is out of range, belongs to another cell, or contradicts
  /// the stopping rule throws RecordError, and nothing of the push is kept.
  PushOutcome push(std::size_t cell, const std::vector<std::string>& lines);

  /// The record lines held for `cell`: values by ascending repetition, then
  /// its stop record if one is held. An assignment ships these so that the
  /// worker runs only the rest.
  std::vector<std::string> resume_lines(std::size_t cell) const;

  /// True when the records prove the cell finished: values for every
  /// repetition up to the cap, or up to the stopping rule's stop point.
  /// Throws RecordError when the records contradict the rule.
  bool cell_complete(std::size_t cell) const;
  bool complete() const;

  /// The journal, newline-terminated: the header, then per cell in
  /// execution order its `resume_lines`, with the rule's stop record added
  /// where none is held. For a complete set these are exactly the bytes a
  /// serial `run_campaign` journals; for an incomplete one, every known
  /// record, which replay accepts.
  std::string journal() const;

  // --- The task loop (run_campaign, run_cells) ---------------------------
  bool has(std::size_t cell, int rep) const {
    return cells_[cell].slots[static_cast<std::size_t>(rep)] != kMissing;
  }
  double value(std::size_t cell, int rep) const {
    return cells_[cell].values[static_cast<std::size_t>(rep)];
  }
  /// Stores a value the task loop measured. Workers may call this
  /// concurrently for distinct (cell, rep) slots.
  void measured(std::size_t cell, int rep, double value) {
    cells_[cell].values[static_cast<std::size_t>(rep)] = value;
    cells_[cell].slots[static_cast<std::size_t>(rep)] = kMeasured;
  }
  bool has_stop(std::size_t cell) const { return cells_[cell].stop != 0; }
  /// Notes where the task loop's stopping rule held for `cell`.
  void converged(std::size_t cell, int stop) { cells_[cell].converged = stop; }

  /// Fills `result`'s cell values, stop outcomes and resumed count in
  /// execution order, up to the first repetition no record holds: the
  /// serial rule, so an interrupted campaign reports the same values at any
  /// thread count. A cell the task loop saw converge ends at that stop
  /// point; a stop record that disagrees is ignored.
  void assemble(CampaignResult& result) const;

 private:
  enum Slot : char { kMissing, kKnown, kMeasured };
  struct Cell {
    std::vector<double> values;  ///< By repetition.
    std::vector<Slot> slots;     ///< kKnown: replayed or pushed.
    int stop = 0;                ///< Journaled stop count; 0 = none.
    int converged = 0;           ///< Task loop's stop count; 0 = none.
  };

  /// Values held from repetition 0 on without a gap.
  int prefix(const Cell& cell) const;
  /// The stop point the rule derives from `cell`'s value prefix (0 = none),
  /// and whether its records finish it. Throws RecordError when the records
  /// contradict the rule.
  struct Canonical {
    int stop = 0;
    bool complete = false;
  };
  Canonical canonical(std::size_t index, const Cell& cell) const;

  std::vector<Cell> cells_;
  int cap_;
  AdaptiveConfirmOptions adaptive_;
  std::string header_;
  std::vector<std::size_t> order_;
};

}  // namespace cloudrepro::core
