#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/campaign.h"

namespace cloudrepro::shard {

/// One cell assignment as shipped by a coordinator: the cell index plus the
/// journal record lines already known for it (the replay prefix — warm
/// cache, or a previous worker's partial progress).
struct CellTask {
  std::size_t cell = 0;
  std::vector<std::string> resume_lines;
};

struct CellTaskResult {
  /// Freshly executed record lines (values rep-ascending; adaptive stop
  /// record inline after its triggering value) — what gets pushed back.
  std::vector<std::string> lines;
  /// The cell reached its stop point (cap or adaptive convergence); false
  /// only on cooperative cancellation, in which case `lines` still holds
  /// every repetition that finished before the flag was seen.
  bool complete = false;
  std::size_t executed = 0;
};

/// Runs one campaign cell exactly as the equivalent single-node
/// `core::run_campaign` would: every repetition draws from
/// `campaign_repetition_seed(seed, cell, rep)`, resumed records replay
/// instead of re-executing (adaptive cells feed them through the
/// ConfirmMonitor first), and the emitted lines are byte-identical to the
/// serial reference journal's. Non-adaptive repetitions parallelize across
/// `threads` into pre-assigned slots; adaptive cells are inherently
/// sequential (the next repetition may never exist).
///
/// Resume lines failing their checksum are ignored (the coordinator never
/// ships torn lines; a worker tolerates them anyway). Throws
/// std::invalid_argument on out-of-range cell/task inputs.
CellTaskResult run_cell_task(std::vector<core::CampaignCell>& cells,
                             const core::CampaignOptions& options,
                             std::uint64_t seed, const CellTask& task,
                             int threads = 1,
                             const std::atomic<bool>* cancel = nullptr);

}  // namespace cloudrepro::shard
