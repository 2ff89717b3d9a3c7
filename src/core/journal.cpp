#include "core/journal.h"

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <sstream>

#include "io/checksum.h"
#include "io/vfs.h"

namespace cloudrepro::core {

namespace {

constexpr std::string_view kCrcTag = ",\"crc\":\"";

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Minimal field extraction for our own journal records. core sits below
/// scenario, so scenario's JSON parser is out of reach here, and none is
/// needed: the program wrote these bytes itself, and the CRC vouches for
/// them.
bool extract_field(const std::string& text, const std::string& key,
                   std::string& out) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return false;
  const auto start = pos + needle.size();
  auto end = text.find_first_of(",}", start);
  if (end == std::string::npos) end = text.size();
  out = text.substr(start, end - start);
  return !out.empty();
}

}  // namespace

std::string journal_fmt_double(double value) {
  std::ostringstream ss;
  ss << std::setprecision(17) << value;
  return ss.str();
}

std::string journal_header(const std::vector<CampaignCell>& cells,
                           const CampaignOptions& options, std::uint64_t seed) {
  std::ostringstream ss;
  ss << "{\"type\":\"campaign-journal\",\"version\":2,\"seed\":" << seed
     << ",\"repetitions_per_cell\":" << options.repetitions_per_cell
     << ",\"randomize_order\":" << (options.randomize_order ? "true" : "false")
     << ",\"confidence\":" << journal_fmt_double(options.confidence);
  if (options.adaptive.enabled) {
    // Adaptive parameters change which measurements run, so they are part
    // of what the campaign is a function of. Appended only when enabled so
    // every pre-existing (non-adaptive) journal still matches its header.
    ss << ",\"adaptive\":{\"quantile\":" << journal_fmt_double(options.adaptive.quantile)
       << ",\"confidence\":" << journal_fmt_double(options.adaptive.confidence)
       << ",\"error_bound\":" << journal_fmt_double(options.adaptive.error_bound)
       << ",\"min_repetitions\":" << options.adaptive.min_repetitions << "}";
  }
  ss << ",\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) ss << ',';
    ss << "{\"config\":\"" << json_escape(cells[i].config)
       << "\",\"treatment\":\"" << json_escape(cells[i].treatment) << "\"}";
  }
  ss << "]}";
  return ss.str();
}

std::string journal_line(const JournalRecord& record) {
  std::ostringstream ss;
  if (record.kind == JournalRecord::Kind::kStop) {
    ss << "{\"cell\":" << record.cell << ",\"stop\":" << record.rep;
  } else {
    ss << "{\"cell\":" << record.cell << ",\"rep\":" << record.rep
       << ",\"value\":" << journal_fmt_double(record.value);
  }
  const std::string payload = ss.str();
  return payload + std::string{kCrcTag} + io::crc32_hex(payload) + "\"}";
}

bool parse_journal_line(const std::string& line, JournalRecord& out) {
  // Structure: <payload>,"crc":"xxxxxxxx"}  — fixed-width suffix, so a
  // single find from the right recovers the payload boundary.
  const auto crc_pos = line.rfind(kCrcTag);
  if (crc_pos == std::string::npos) return false;
  const auto hex_start = crc_pos + kCrcTag.size();
  if (line.size() != hex_start + 8 + 2) return false;
  if (line.compare(hex_start + 8, 2, "\"}") != 0) return false;
  const std::string payload = line.substr(0, crc_pos);
  if (line.compare(hex_start, 8, io::crc32_hex(payload)) != 0) return false;

  std::string cell_s;
  if (!extract_field(payload, "cell", cell_s)) return false;
  char* end = nullptr;
  out.cell = std::strtoull(cell_s.c_str(), &end, 10);
  if (end != cell_s.c_str() + cell_s.size()) return false;

  std::string stop_s;
  if (extract_field(payload, "stop", stop_s)) {
    out.kind = JournalRecord::Kind::kStop;
    out.value = 0.0;
    out.rep = static_cast<int>(std::strtol(stop_s.c_str(), &end, 10));
    return end == stop_s.c_str() + stop_s.size();
  }

  std::string rep_s, value_s;
  if (!extract_field(payload, "rep", rep_s) ||
      !extract_field(payload, "value", value_s)) {
    return false;
  }
  out.kind = JournalRecord::Kind::kValue;
  out.rep = static_cast<int>(std::strtol(rep_s.c_str(), &end, 10));
  if (end != rep_s.c_str() + rep_s.size()) return false;
  out.value = std::strtod(value_s.c_str(), &end);
  return end == value_s.c_str() + value_s.size();
}

JournalReplay replay_journal(io::Vfs& vfs, const std::filesystem::path& path,
                             const std::string& expected_header,
                             std::size_t cell_count, int repetitions) {
  JournalReplay replay;
  const auto contents = vfs.read_file(path);
  if (!contents || contents->empty()) return replay;

  const auto header_end = contents->find('\n');
  if (header_end == std::string::npos) {
    // No newline yet. A (possibly complete) prefix of the expected header
    // is a crash mid-header-write — the tear can land anywhere up to and
    // including the byte before the newline. Replay as fresh and truncate
    // the torn bytes. Any other content is someone else's file.
    if (contents->size() <= expected_header.size() &&
        expected_header.compare(0, contents->size(), *contents) == 0) {
      replay.corrupt_tail = true;
      return replay;
    }
    throw JournalMismatch{"journal header mismatch (torn foreign header) in " +
                          path.string()};
  }
  if (contents->compare(0, header_end, expected_header) != 0) {
    throw JournalMismatch{
        "journal header mismatch (different seed, options, or cell grid) in " +
        path.string()};
  }

  std::size_t offset = header_end + 1;
  replay.valid_bytes = offset;
  while (offset < contents->size()) {
    const auto line_end = contents->find('\n', offset);
    if (line_end == std::string::npos) {
      replay.corrupt_tail = true;  // Unterminated final line: torn write.
      break;
    }
    const std::string line = contents->substr(offset, line_end - offset);
    JournalRecord record;
    if (!parse_journal_line(line, record)) {
      // First malformed or checksum-failing record: everything from here on
      // is untrusted. Truncate-and-resume re-runs only these measurements.
      replay.corrupt_tail = true;
      break;
    }
    if (record.kind == JournalRecord::Kind::kStop) {
      if (record.cell >= cell_count || record.rep < 1 || record.rep > repetitions) {
        throw JournalMismatch{"journal stop record out of range in " + path.string()};
      }
      replay.stops[record.cell] = record.rep;
    } else {
      if (record.cell >= cell_count || record.rep < 0 || record.rep >= repetitions) {
        throw JournalMismatch{"journal record out of range in " + path.string()};
      }
      replay.done[{record.cell, record.rep}] = record.value;
    }
    offset = line_end + 1;
    replay.valid_bytes = offset;
  }
  return replay;
}

CampaignRecords::CampaignRecords(const std::vector<CampaignCell>& cells,
                                 const CampaignOptions& options,
                                 std::uint64_t seed)
    : cells_(cells.size()),
      cap_(options.repetitions_per_cell),
      adaptive_(options.adaptive),
      header_(journal_header(cells, options, seed)),
      order_(campaign_execution_order(cells.size(), options, seed)) {
  for (Cell& cell : cells_) {
    cell.values.assign(static_cast<std::size_t>(cap_), 0.0);
    cell.slots.assign(static_cast<std::size_t>(cap_), kMissing);
  }
}

void CampaignRecords::absorb(const JournalReplay& replay) {
  for (const auto& [key, value] : replay.done) {
    const auto rep = static_cast<std::size_t>(key.second);
    cells_[key.first].values[rep] = value;
    cells_[key.first].slots[rep] = kKnown;
  }
  for (const auto& [cell, stop] : replay.stops) cells_[cell].stop = stop;
}

int CampaignRecords::prefix(const Cell& cell) const {
  int n = 0;
  while (n < cap_ && cell.slots[static_cast<std::size_t>(n)] != kMissing) ++n;
  return n;
}

CampaignRecords::Canonical CampaignRecords::canonical(std::size_t index,
                                                      const Cell& cell) const {
  const int held = prefix(cell);
  if (!adaptive_.enabled) return {0, held == cap_};
  const auto contradiction = [index](const char* code, const std::string& what) {
    return RecordError{code, "cell " + std::to_string(index) + " " + what};
  };
  ConfirmMonitor monitor{adaptive_};
  int stop = 0;
  for (int r = 0; r < held && stop == 0; ++r) {
    if (monitor.add(cell.values[static_cast<std::size_t>(r)])) {
      stop = static_cast<int>(monitor.stop_repetitions());
    }
  }
  if (stop == 0) {
    if (cell.stop != 0 && held >= cell.stop) {
      throw contradiction("conflict", "stop record claims " +
                                          std::to_string(cell.stop) +
                                          " repetitions but the stopping rule "
                                          "does not stop there");
    }
    return {0, held == cap_};
  }
  for (int r = cap_ - 1; r >= stop; --r) {
    if (cell.slots[static_cast<std::size_t>(r)] != kMissing) {
      throw contradiction("beyond_stop", "has a value at repetition " +
                                             std::to_string(r) +
                                             " past its stop point " +
                                             std::to_string(stop));
    }
  }
  if (cell.stop != 0 && cell.stop != stop) {
    throw contradiction("conflict", "stop record claims " +
                                        std::to_string(cell.stop) +
                                        " repetitions but the stopping rule "
                                        "stops at " +
                                        std::to_string(stop));
  }
  return {stop, true};
}

CampaignRecords::PushOutcome CampaignRecords::push(
    std::size_t cell, const std::vector<std::string>& lines) {
  if (cell >= cells_.size()) {
    throw RecordError{"range", "push: cell index " + std::to_string(cell) +
                                   " out of range"};
  }
  PushOutcome outcome;
  // Stage against a copy and commit only a coherent result: a push that
  // throws leaves the set as it was.
  Cell staged = cells_[cell];
  std::size_t parsed = 0;
  for (const std::string& line : lines) {
    JournalRecord record;
    if (!parse_journal_line(line, record)) {
      outcome.dropped = lines.size() - parsed;
      break;
    }
    ++parsed;
    if (record.cell != cell) {
      throw RecordError{"cell_mismatch", "push for cell " + std::to_string(cell) +
                                             " contains a record for cell " +
                                             std::to_string(record.cell)};
    }
    if (record.kind == JournalRecord::Kind::kValue) {
      if (record.rep < 0 || record.rep >= cap_) {
        throw RecordError{"range", "record repetition " +
                                       std::to_string(record.rep) +
                                       " outside [0, " + std::to_string(cap_) +
                                       ")"};
      }
      const auto rep = static_cast<std::size_t>(record.rep);
      if (staged.slots[rep] != kMissing) {
        if (staged.values[rep] == record.value) {
          ++outcome.duplicates;
          continue;
        }
        throw RecordError{"conflict",
                          "cell " + std::to_string(cell) + " repetition " +
                              std::to_string(record.rep) +
                              " already has a different value — two workers "
                              "disagree on a deterministic measurement"};
      }
      staged.values[rep] = record.value;
      staged.slots[rep] = kKnown;
    } else {
      if (!adaptive_.enabled) {
        throw RecordError{"unexpected_stop",
                          "stop record in a non-adaptive campaign"};
      }
      if (record.rep < 1 || record.rep > cap_) {
        throw RecordError{"range", "stop count " + std::to_string(record.rep) +
                                       " outside [1, " + std::to_string(cap_) +
                                       "]"};
      }
      if (staged.stop == record.rep) {
        ++outcome.duplicates;
        continue;
      }
      if (staged.stop != 0) {
        throw RecordError{"conflict", "cell " + std::to_string(cell) +
                                          " has two disagreeing stop records"};
      }
      staged.stop = record.rep;
    }
    ++outcome.accepted;
  }
  outcome.cell_complete = canonical(cell, staged).complete;
  cells_[cell] = std::move(staged);
  return outcome;
}

std::vector<std::string> CampaignRecords::resume_lines(std::size_t cell) const {
  const Cell& state = cells_.at(cell);
  std::vector<std::string> out;
  for (int r = 0; r < cap_; ++r) {
    const auto rep = static_cast<std::size_t>(r);
    if (state.slots[rep] != kMissing) {
      out.push_back(journal_line({cell, r, state.values[rep]}));
    }
  }
  if (state.stop != 0) {
    out.push_back(journal_line(journal_stop_record(cell, state.stop)));
  }
  return out;
}

bool CampaignRecords::cell_complete(std::size_t cell) const {
  return canonical(cell, cells_.at(cell)).complete;
}

bool CampaignRecords::complete() const {
  for (std::size_t cell = 0; cell < cells_.size(); ++cell) {
    if (!cell_complete(cell)) return false;
  }
  return true;
}

std::string CampaignRecords::journal() const {
  std::string out = header_ + '\n';
  for (const std::size_t cell : order_) {
    for (const std::string& line : resume_lines(cell)) out += line + '\n';
    // A stop record lost to a torn tail is healed here, as run_campaign
    // re-emits it on resume.
    const Canonical c = canonical(cell, cells_[cell]);
    if (c.stop != 0 && cells_[cell].stop == 0) {
      out += journal_line(journal_stop_record(cell, c.stop)) + '\n';
    }
  }
  return out;
}

void CampaignRecords::assemble(CampaignResult& result) const {
  for (const std::size_t index : order_) {
    const Cell& cell = cells_[index];
    CampaignCellResult& out = result.cells[index];
    const int held = prefix(cell);
    const int stop = cell.converged;
    out.adaptive_converged = stop != 0;
    out.stop_repetitions = static_cast<std::size_t>(stop);
    const int end = stop != 0 ? stop : cap_;
    for (int r = 0; r < std::min(held, end); ++r) {
      const auto rep = static_cast<std::size_t>(r);
      out.values.push_back(cell.values[rep]);
      if (cell.slots[rep] == kKnown) ++result.resumed_measurements;
    }
    if (held < end) break;
  }
}

}  // namespace cloudrepro::core
