#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "serve/transport.h"

namespace cloudrepro::serve {

/// Configuration for one worker loop (`cloudrepro work`). A worker holds a
/// single connection to the coordinator and alternates SHARD_PULL /
/// SHARD_PUSH until cancelled (or until the coordinator goes quiet for
/// `max_idle_polls` consecutive pulls, when that bound is set — how tests
/// and CI keep workers from running forever).
struct WorkerOptions {
  /// Worker name echoed in every request (attribution in coordinator logs).
  std::string name = "worker";
  /// `CampaignOptions::threads` for each assigned cell: parallelism across
  /// its repetitions (an adaptive cell is one sequential task). Never
  /// affects bytes.
  int threads = 1;
  /// Floor for the idle backoff; the coordinator's advertised retry_ms
  /// wins when larger.
  int idle_sleep_ms = 50;
  /// Exit after this many consecutive idle pulls; 0 = poll until cancelled.
  int max_idle_polls = 0;
  /// Cooperative cancellation (SIGINT/SIGTERM). A cell in flight finishes
  /// the repetitions already running, pushes every finished one, and the
  /// loop exits.
  const std::atomic<bool>* cancel = nullptr;
  /// Human-readable progress lines ("assigned cell 3 of fig13-confirm",
  /// ...); the CLI points this at stderr. Null = silent.
  std::function<void(const std::string&)> on_event;
};

struct WorkerStats {
  std::size_t cells_completed = 0;  ///< Assignments run to their stop point.
  std::size_t cells_partial = 0;    ///< Assignments cut short by cancellation.
  std::size_t records_pushed = 0;   ///< Record lines the coordinator accepted.
};

/// Runs the pull/run/push worker loop over `transport` until cancellation,
/// idle exhaustion, or coordinator shutdown. Per-session context (cells
/// built from the inline spec) is cached by session key, so repeated
/// assignments from one campaign pay spec materialization once; an
/// `unknown_session` push rejection drops the cached context and the loop
/// continues (the coordinator finalized or abandoned that campaign —
/// normal when this worker raced the last cell).
///
/// Throws std::runtime_error on transport loss and ProtocolError on
/// malformed coordinator frames; a clean coordinator shutdown
/// ("shutting_down" rejection) returns normally.
WorkerStats run_worker(std::unique_ptr<Transport> transport,
                       const WorkerOptions& options);

}  // namespace cloudrepro::serve
