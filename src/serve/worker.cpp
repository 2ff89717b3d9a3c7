#include "serve/worker.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/journal.h"
#include "scenario/runner.h"
#include "serve/client.h"
#include "serve/protocol.h"

namespace cloudrepro::serve {

namespace {

/// Per-session worker context: cells materialized once from the inline spec
/// and reused across this session's assignments, and the campaign options
/// with this worker's threads and cancellation. Cells are stateless between
/// repetitions (each run_once builds everything from its repetition RNG), so
/// reuse never leaks state across assignments.
struct SessionContext {
  std::vector<core::CampaignCell> cells;
  core::CampaignOptions options;
};

void emit(const WorkerOptions& options, const std::string& line) {
  if (options.on_event) options.on_event(line);
}

bool cancelled(const WorkerOptions& options) {
  return options.cancel && options.cancel->load(std::memory_order_relaxed);
}

}  // namespace

WorkerStats run_worker(std::unique_ptr<Transport> transport,
                       const WorkerOptions& options) {
  FetchClient client{std::move(transport)};
  WorkerStats stats;
  std::map<std::string, SessionContext> sessions;
  int consecutive_idle = 0;

  while (!cancelled(options)) {
    Response pull = client.request(shard_pull_request_frame(options.name));
    if (!pull.ok) {
      if (pull.error_code == "shutting_down") {
        emit(options, "coordinator shutting down");
        break;
      }
      throw std::runtime_error{"SHARD_PULL rejected (" + pull.error_code +
                               "): " + pull.error_message};
    }
    const ShardAssignment assignment = parse_shard_pull_response(pull.body);
    if (assignment.idle) {
      ++consecutive_idle;
      if (options.max_idle_polls > 0 &&
          consecutive_idle >= options.max_idle_polls) {
        emit(options, "idle poll budget exhausted");
        break;
      }
      const int sleep_ms = std::max(options.idle_sleep_ms,
                                    std::max(assignment.retry_ms, 1));
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      continue;
    }
    consecutive_idle = 0;

    auto context = sessions.find(assignment.key);
    if (context == sessions.end()) {
      SessionContext fresh;
      fresh.cells = scenario::build_cells(*assignment.spec);
      fresh.options = scenario::campaign_options(*assignment.spec);
      fresh.options.threads = options.threads;
      fresh.options.cancel = options.cancel;
      context = sessions.emplace(assignment.key, std::move(fresh)).first;
    }
    emit(options, "assigned cell " + std::to_string(assignment.cell) + " (" +
                      std::to_string(assignment.resume.size()) +
                      " resume lines)");

    // The cell runs through the campaign's own task loop, resumed from the
    // shipped records, so its lines are the ones a serial run journals.
    const SessionContext& session = context->second;
    core::CampaignRecords records{session.cells, session.options,
                                  assignment.seed};
    records.push(assignment.cell, assignment.resume);
    std::vector<std::string> lines;
    const auto started = std::chrono::steady_clock::now();
    const bool complete = core::run_cells(
        session.cells, session.options, assignment.seed, {assignment.cell},
        records, [&lines](const std::string& line) { lines.push_back(line); });
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();

    Response push = client.request(
        shard_push_request_frame(options.name, assignment.key, assignment.cell,
                                 lines, wall_s));
    if (!push.ok) {
      if (push.error_code == "unknown_session") {
        // The coordinator finalized or abandoned this campaign while we were
        // measuring — normal when another worker pushed the last cell. Our
        // records are reproducible, so dropping them loses nothing.
        sessions.erase(assignment.key);
        emit(options, "session gone; dropping cell " +
                          std::to_string(assignment.cell));
        continue;
      }
      if (push.error_code == "shutting_down") {
        emit(options, "coordinator shutting down");
        break;
      }
      throw std::runtime_error{"SHARD_PUSH rejected (" + push.error_code +
                               "): " + push.error_message};
    }
    const ShardPushAck ack = parse_shard_push_response(push.body);
    stats.records_pushed += ack.accepted;
    if (complete) {
      ++stats.cells_completed;
    } else {
      ++stats.cells_partial;
    }
    emit(options, "pushed cell " + std::to_string(assignment.cell) + ": " +
                      std::to_string(ack.accepted) + " accepted, " +
                      std::to_string(ack.duplicates) + " duplicate" +
                      (ack.campaign_complete ? ", campaign complete" : ""));
    if (ack.campaign_complete) sessions.erase(assignment.key);
    if (!complete) break;  // Cancelled mid-cell; partial was pushed.
  }
  return stats;
}

}  // namespace cloudrepro::serve
