#include "serve/server.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/journal.h"
#include "io/vfs.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "scenario/json.h"
#include "scenario/runner.h"
#include "serve/protocol.h"

namespace cloudrepro::serve {

using scenario::Json;
using scenario::JsonArray;
using scenario::JsonObject;

ServerCore::ServerCore(scenario::ResultStore& store, obs::MetricsRegistry& metrics,
                       ServeOptions options)
    : store_(store),
      metrics_(metrics),
      options_(std::move(options)),
      registry_(options_.registry ? options_.registry
                                  : &scenario::ScenarioRegistry::builtin()) {
  for (const auto& spec : registry_->scenarios()) {
    hash_index_.emplace(spec.content_hash(), &spec);
  }
  executor_ = std::make_unique<runtime::ThreadPool>(
      std::max(1, options_.executor_threads));
}

ServerCore::~ServerCore() {
  shutdown_.store(true, std::memory_order_relaxed);
  // Join the executor from the destructor *body*: its tasks touch the
  // completion queue and the flight table, which member destruction would
  // otherwise tear down first (members die in reverse declaration order).
  executor_.reset();
  for (auto& [id, conn] : connections_) conn.transport->close();
}

std::uint64_t ServerCore::add_connection(std::unique_ptr<Transport> transport) {
  if (!transport) return 0;
  if (connections_.size() >= options_.max_connections) {
    transport->close();
    count("serve.connections_rejected");
    return 0;
  }
  const std::uint64_t id = next_id_++;
  connections_.emplace(
      std::piecewise_construct, std::forward_as_tuple(id),
      std::forward_as_tuple(id, std::move(transport), options_.max_frame_bytes));
  count("serve.connections_accepted");
  metrics_.gauge("serve.connections").set(static_cast<double>(connections_.size()));
  return id;
}

bool ServerCore::poll_once() {
  bool progress = drain_completions();
  for (auto it = connections_.begin(); it != connections_.end();) {
    Connection& conn = it->second;
    progress |= pump_writes(conn);
    progress |= pump_reads(conn);
    progress |= process_frames(conn);
    // A half-closed connection survives until its response is flushed (the
    // client may have shut down its send side and still be reading).
    const bool flushed_eof =
        conn.read_closed && conn.write_buf.empty() && !conn.executing;
    if (conn.dead || flushed_eof) {
      if (conn.is_worker) forget_worker(conn);
      conn.transport->close();
      count("serve.connections_closed");
      it = connections_.erase(it);
      progress = true;
    } else {
      ++it;
    }
  }
  metrics_.gauge("serve.connections").set(static_cast<double>(connections_.size()));
  return progress;
}

bool ServerCore::drain_completions() {
  std::deque<Completion> batch;
  {
    std::lock_guard<std::mutex> lock{completions_mu_};
    batch.swap(completions_);
  }
  for (const Completion& completion : batch) {
    const auto it = connections_.find(completion.connection_id);
    if (it == connections_.end()) continue;  // Client left mid-flight.
    Connection& conn = it->second;
    conn.executing = false;
    if (!completion.ok) count("serve.get_errors");
    respond(conn, completion.response);
    observe_latency(conn);
  }
  return !batch.empty();
}

bool ServerCore::pump_writes(Connection& conn) {
  if (conn.dead || conn.write_buf.empty()) return false;
  bool progress = false;
  std::size_t budget = options_.write_budget_per_poll;
  while (budget > 0 && !conn.write_buf.empty()) {
    const std::string_view chunk{conn.write_buf.data(),
                                 std::min(budget, conn.write_buf.size())};
    const IoResult result = conn.transport->write(chunk);
    if (result.status == IoStatus::kOk) {
      conn.write_buf.erase(0, result.bytes);
      budget -= result.bytes;
      count("serve.bytes_out", static_cast<double>(result.bytes));
      progress = true;
    } else if (result.status == IoStatus::kWouldBlock) {
      break;
    } else {
      conn.dead = true;
      break;
    }
  }
  return progress;
}

bool ServerCore::pump_reads(Connection& conn) {
  // Reads pause while a GET executes: the client's next pipelined request
  // stays in the kernel/pipe buffer, which is the per-connection flow
  // control (one outstanding campaign per connection). Reads continue
  // through shutdown — frames are answered with "shutting_down" errors, a
  // clean refusal instead of a silent stall.
  if (conn.dead || conn.executing || conn.read_closed) return false;
  bool progress = false;
  std::size_t budget = options_.read_budget_per_poll;
  char buffer[8 * 1024];
  while (budget > 0) {
    const std::size_t want = std::min(budget, sizeof buffer);
    const IoResult result = conn.transport->read(buffer, want);
    if (result.status == IoStatus::kOk) {
      conn.decoder.push({buffer, result.bytes});
      budget -= result.bytes;
      count("serve.bytes_in", static_cast<double>(result.bytes));
      progress = true;
      if (result.bytes < want) break;  // Drained the transport.
    } else if (result.status == IoStatus::kWouldBlock) {
      break;
    } else if (result.status == IoStatus::kClosed) {
      conn.read_closed = true;
      progress = true;
      break;
    } else {
      conn.dead = true;
      break;
    }
  }
  return progress;
}

bool ServerCore::process_frames(Connection& conn) {
  bool progress = false;
  std::string frame;
  while (!conn.dead && !conn.executing) {
    const FrameDecoder::Status status = conn.decoder.next(frame);
    if (status == FrameDecoder::Status::kNeedMore) break;
    progress = true;
    if (status == FrameDecoder::Status::kOversize) {
      count("serve.requests_oversize");
      respond(conn,
              error_response("oversize",
                             "request frame exceeds " +
                                 std::to_string(options_.max_frame_bytes) +
                                 " bytes"));
      continue;
    }
    count("serve.frames");
    handle_frame(conn, frame);
  }
  return progress;
}

void ServerCore::handle_frame(Connection& conn, const std::string& frame) {
  if (shutdown_.load(std::memory_order_relaxed)) {
    respond(conn, error_response("shutting_down", "server is shutting down"));
    return;
  }
  Request request;
  try {
    request = parse_request(frame);
  } catch (const ProtocolError& error) {
    count("serve.requests_bad");
    respond(conn, error_response(error.code(), error.what()));
    return;
  }
  switch (request.op) {
    case Request::Op::kList:
      count("serve.requests_list");
      respond(conn, list_response());
      return;
    case Request::Op::kStats:
      count("serve.requests_stats");
      respond(conn, stats_response());
      return;
    case Request::Op::kShardPull:
      count("serve.requests_shard_pull");
      handle_shard_pull(conn, request);
      return;
    case Request::Op::kShardPush:
      count("serve.requests_shard_push");
      handle_shard_push(conn, request);
      return;
    case Request::Op::kGet:
      break;
  }
  count("serve.requests_get");
  conn.request_start = std::chrono::steady_clock::now();
  handle_get(conn, request);
}

const scenario::ScenarioSpec* ServerCore::resolve_request_spec(
    Connection& conn, const Request& request) {
  if (request.spec) return &*request.spec;
  if (!request.scenario_name.empty()) {
    const scenario::ScenarioSpec* spec = resolve_by_name(request.scenario_name);
    if (!spec) {
      count("serve.requests_bad");
      respond(conn, error_response("unknown_scenario",
                                   "no scenario named \"" +
                                       request.scenario_name + "\""));
    }
    return spec;
  }
  const scenario::ScenarioSpec* spec = resolve_by_hash(request.hash);
  if (!spec) {
    count("serve.requests_bad");
    respond(conn,
            error_response("unknown_hash",
                           "no registry scenario with that content hash"));
  }
  return spec;
}

void ServerCore::handle_get(Connection& conn, const Request& request) {
  const scenario::ScenarioSpec* spec = resolve_request_spec(conn, request);
  if (!spec) return;
  const std::uint64_t seed = request.seed.value_or(spec->seed);
  const std::string hash = spec->content_hash();

  // Fast path: complete entries are served inline — no executor hop, no
  // single-flight. Deliberately peek-style (read_summary_checked + touch,
  // not lookup): scenario.cache.* counters keep meaning "campaign
  // admissions", so N served hits do not inflate them — the reconciliation
  // the herd test asserts. A summary corrupted on disk fails validation
  // here, is evicted, and the request falls through to execution.
  if (auto summary = store_.read_summary_checked(*spec, seed)) {
    store_.touch(*spec, seed);
    count("serve.get_hit");
    respond(conn, get_response(hash, seed, "hit", *summary));
    observe_latency(conn);
    return;
  }

  if (inflight_.load(std::memory_order_relaxed) >= options_.max_inflight) {
    count("serve.busy_rejected");
    respond(conn,
            error_response("busy", "execution queue is full; retry later"));
    return;
  }

  conn.executing = true;
  const std::string key = store_.entry_key(*spec, seed);
  const std::uint64_t conn_id = conn.id;
  auto callback = [this, conn_id, hash, seed](const FlightOutcome& outcome,
                                              bool leader) {
    Completion completion;
    completion.connection_id = conn_id;
    completion.ok = outcome.ok;
    completion.response =
        outcome.ok
            ? get_response(hash, seed, leader ? outcome.hit : "coalesced",
                           outcome.summary)
            : error_response(outcome.error_code, outcome.error_message);
    std::function<void()> wake;
    {
      std::lock_guard<std::mutex> lock{completions_mu_};
      completions_.push_back(std::move(completion));
      wake = wake_hook_;
    }
    completions_cv_.notify_all();
    if (wake) wake();
  };

  if (flights_.join(key, std::move(callback))) {
    count("serve.single_flight_leader");
    const auto depth = inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
    metrics_.gauge("serve.queue_depth").set(static_cast<double>(depth));
    // With workers registered, the leader opens a distributed session
    // instead of executing locally; the session completes this same flight,
    // so the herd still coalesces onto one campaign.
    if (worker_count_ > 0 && open_shard_session(*spec, seed, key)) {
      count("shard.sessions_opened");
      const auto session = sessions_.find(key);
      if (session != sessions_.end() && session->second.records->complete()) {
        // Warm journal already proves completion (only the summary was
        // missing): finalize immediately, no assignments needed.
        close_session(key);
      }
      return;
    }
    executor_->submit([this, spec = *spec, seed, key] {
      FlightOutcome outcome = execute(spec, seed);
      if (outcome.ok) count("serve.get_executed");
      const auto left = inflight_.fetch_sub(1, std::memory_order_relaxed) - 1;
      metrics_.gauge("serve.queue_depth").set(static_cast<double>(left));
      flights_.complete(key, outcome);
    });
  } else {
    count("serve.single_flight_coalesced");
  }
}

void ServerCore::handle_shard_pull(Connection& conn, const Request& request) {
  (void)request;  // The worker name is attribution only.
  if (!conn.is_worker) {
    conn.is_worker = true;
    ++worker_count_;
    metrics_.gauge("shard.workers").set(static_cast<double>(worker_count_));
  }
  for (auto& [key, session] : sessions_) {
    if (session.pending.empty()) continue;
    const std::size_t cell = session.pending.front();
    session.pending.pop_front();
    session.assigned[conn.id].push_back(cell);
    count("shard.cells_assigned");
    respond(conn,
            shard_assignment_response(key, cell, session.spec, session.seed,
                                      session.records->resume_lines(cell)));
    return;
  }
  respond(conn, shard_idle_response(options_.worker_retry_ms));
}

void ServerCore::handle_shard_push(Connection& conn, const Request& request) {
  const auto it = sessions_.find(request.key);
  if (it == sessions_.end()) {
    respond(conn, error_response("unknown_session",
                                 "no open shard session for that key"));
    return;
  }
  ShardSession& session = it->second;
  if (request.cell >= session.records->cell_count()) {
    count("serve.requests_bad");
    respond(conn, error_response("bad_field", "cell index out of range"));
    return;
  }
  core::CampaignRecords::PushOutcome outcome;
  try {
    outcome = session.records->push(request.cell, request.records);
  } catch (const core::RecordError& error) {
    // Nothing was committed (push has strong exception safety); requeue the
    // cell so a healthy worker re-derives it, and bounce the typed error to
    // the pusher.
    count("shard.push_rejected");
    release_assignment(session, conn.id, request.cell, /*requeue=*/true);
    respond(conn, error_response(error.code(), error.what()));
    return;
  }
  count("shard.records_accepted", static_cast<double>(outcome.accepted));
  count("shard.records_duplicate", static_cast<double>(outcome.duplicates));
  if (request.wall_s > 0) {
    metrics_.histogram("shard.cell_wall_s").observe(request.wall_s);
  }
  // Completion is *derived* from the record set, never taken from the
  // worker's claim: a cancelled or lossy worker's cell goes back in the
  // queue regardless of what it said.
  const bool cell_done = outcome.cell_complete;
  release_assignment(session, conn.id, request.cell, /*requeue=*/!cell_done);
  if (cell_done) count("shard.cells_completed");
  ShardPushAck ack;
  ack.accepted = outcome.accepted;
  ack.duplicates = outcome.duplicates;
  ack.dropped = outcome.dropped;
  ack.cell_complete = cell_done;
  ack.campaign_complete = session.records->complete();
  respond(conn, shard_push_response(ack));
  if (ack.campaign_complete) close_session(request.key);
}

bool ServerCore::open_shard_session(const scenario::ScenarioSpec& spec,
                                    std::uint64_t seed,
                                    const std::string& key) {
  try {
    scenario::EntryLock lock = store_.try_lock(spec, seed);
    if (!lock) return false;  // Cross-process holder: the executor path waits.
    std::filesystem::path journal_path = store_.prepare(spec, seed);
    const auto cells = scenario::build_cells(spec);
    const core::CampaignOptions copts = scenario::campaign_options(spec);
    auto records = std::make_unique<core::CampaignRecords>(cells, copts, seed);
    try {
      records->absorb(core::replay_journal(io::real_vfs(), journal_path,
                                           records->header(), cells.size(),
                                           copts.repetitions_per_cell));
    } catch (const core::JournalMismatch&) {
      // A journal from a different grid/build: discard it and go cold under
      // the lock, exactly as run_scenario does.
      store_.discard_journal(spec, seed);
      records = std::make_unique<core::CampaignRecords>(cells, copts, seed);
    }
    ShardSession session;
    session.spec = spec;
    session.seed = seed;
    session.journal_path = std::move(journal_path);
    // A replayed journal whose records contradict the stopping rule throws
    // here and leaves the campaign to the executor, whose replay tolerates it.
    for (const std::size_t cell : records->execution_order()) {
      if (!records->cell_complete(cell)) session.pending.push_back(cell);
    }
    session.records = std::move(records);
    session.lock = std::make_shared<scenario::EntryLock>(std::move(lock));
    sessions_.emplace(key, std::move(session));
    return true;
  } catch (const std::exception&) {
    return false;  // Session setup failed; the executor path still works.
  }
}

void ServerCore::close_session(const std::string& key) {
  const auto it = sessions_.find(key);
  if (it == sessions_.end()) return;
  ShardSession session = std::move(it->second);
  sessions_.erase(it);

  // Snapshot the journal bytes on the reactor (the records die with the
  // session): the canonical journal when complete, else every known record.
  std::string bytes = session.records->journal();
  count(session.records->complete() ? "shard.sessions_finalized"
                                    : "shard.sessions_demoted");

  // File I/O and the replay run belong on the executor.
  executor_->submit([this, key, spec = session.spec, seed = session.seed,
                     path = session.journal_path, bytes = std::move(bytes),
                     lock = session.lock] {
    FlightOutcome outcome;
    try {
      io::Vfs& vfs = io::real_vfs();
      {
        auto file = vfs.open_write(path, io::WriteMode::kTruncate);
        file->append(bytes);
        file->sync();
        file->close();
      }
      vfs.sync_dir(path.parent_path());
      // Release before the replay run: run_scenario takes the entry lock
      // itself, and this process already holding it would read as
      // contention.
      lock->release();
      outcome = execute(spec, seed);
    } catch (const std::exception& error) {
      lock->release();
      outcome.ok = false;
      outcome.error_code = "execution";
      outcome.error_message = error.what();
    }
    if (outcome.ok) count("serve.get_executed");
    const auto left = inflight_.fetch_sub(1, std::memory_order_relaxed) - 1;
    metrics_.gauge("serve.queue_depth").set(static_cast<double>(left));
    flights_.complete(key, outcome);
  });
}

void ServerCore::forget_worker(const Connection& conn) {
  --worker_count_;
  metrics_.gauge("shard.workers").set(static_cast<double>(worker_count_));
  for (auto& [key, session] : sessions_) {
    const auto it = session.assigned.find(conn.id);
    if (it == session.assigned.end()) continue;
    for (const std::size_t cell : it->second) {
      if (!session.records->cell_complete(cell)) {
        session.pending.push_back(cell);
        count("shard.cells_reassigned");
      }
    }
    session.assigned.erase(it);
  }
  if (worker_count_ == 0 && !sessions_.empty()) {
    // The last worker died: demote every open session to local execution,
    // resuming from whatever the workers pushed.
    std::vector<std::string> keys;
    keys.reserve(sessions_.size());
    for (const auto& [key, session] : sessions_) keys.push_back(key);
    for (const std::string& key : keys) close_session(key);
  }
}

void ServerCore::release_assignment(ShardSession& session,
                                    std::uint64_t conn_id, std::size_t cell,
                                    bool requeue) {
  const auto it = session.assigned.find(conn_id);
  if (it != session.assigned.end()) {
    auto& cells = it->second;
    cells.erase(std::remove(cells.begin(), cells.end(), cell), cells.end());
    if (cells.empty()) session.assigned.erase(it);
  }
  if (requeue && std::find(session.pending.begin(), session.pending.end(),
                           cell) == session.pending.end()) {
    session.pending.push_back(cell);
  }
}

FlightOutcome ServerCore::execute(const scenario::ScenarioSpec& spec,
                                  std::uint64_t seed) {
  FlightOutcome outcome;
  try {
    scenario::RunOptions run;
    run.threads = options_.campaign_threads;
    run.seed = seed;
    run.store = &store_;
    run.metrics = &metrics_;
    run.cancel = &shutdown_;
    const scenario::ScenarioRunResult result = scenario::run_scenario(spec, run);
    if (!result.complete) {
      outcome.error_code = "interrupted";
      outcome.error_message =
          "campaign interrupted before completion; journaled progress resumes "
          "on retry";
      return outcome;
    }
    outcome.ok = true;
    outcome.summary = result.summary;
    outcome.hit = scenario::ResultStore::to_string(result.hit_state);
  } catch (const std::exception& error) {
    outcome.error_code = "execution";
    outcome.error_message = error.what();
  }
  return outcome;
}

void ServerCore::respond(Connection& conn, const std::string& response) {
  if (conn.dead) return;
  conn.write_buf += response;
  conn.write_buf += '\n';
  if (conn.write_buf.size() > options_.max_write_buffer) {
    count("serve.slow_client_drops");
    conn.dead = true;
  }
}

void ServerCore::observe_latency(const Connection& conn) {
  const auto elapsed = std::chrono::steady_clock::now() - conn.request_start;
  metrics_.histogram("serve.request_latency_s")
      .observe(std::chrono::duration<double>(elapsed).count());
}

const scenario::ScenarioSpec* ServerCore::resolve_by_name(
    const std::string& name) const {
  return registry_->find(name);
}

const scenario::ScenarioSpec* ServerCore::resolve_by_hash(
    const std::string& hash) const {
  const auto it = hash_index_.find(hash);
  return it == hash_index_.end() ? nullptr : it->second;
}

std::string ServerCore::list_response() const {
  JsonObject root;
  root["ok"] = Json{true};
  JsonArray scenarios;
  for (const auto& spec : registry_->scenarios()) {
    JsonObject item;
    item["hash"] = Json{spec.content_hash()};
    item["name"] = Json{spec.name};
    item["seed"] = Json{spec.seed};
    scenarios.push_back(Json{std::move(item)});
  }
  root["scenarios"] = Json{std::move(scenarios)};
  JsonArray cache;
  for (const auto& entry : store_.entries()) {
    JsonObject item;
    item["complete"] = Json{entry.complete};
    item["key"] = Json{entry.key};
    item["measurements"] =
        Json{static_cast<std::uint64_t>(entry.journal_measurements)};
    cache.push_back(Json{std::move(item)});
  }
  root["cache"] = Json{std::move(cache)};
  return Json{std::move(root)}.canonical();
}

std::string ServerCore::stats_response() {
  metrics_.gauge("serve.connections").set(static_cast<double>(connections_.size()));
  metrics_.gauge("serve.queue_depth")
      .set(static_cast<double>(inflight_.load(std::memory_order_relaxed)));
  metrics_.gauge("serve.open_flights")
      .set(static_cast<double>(flights_.open_flights()));
  JsonObject root;
  root["metrics"] = Json::parse(metrics_.to_json());
  root["ok"] = Json{true};
  return Json{std::move(root)}.canonical();
}

void ServerCore::count(const char* name, double delta) {
  metrics_.counter(name).add(delta);
}

std::vector<ServerCore::Interest> ServerCore::interests() const {
  std::vector<Interest> out;
  out.reserve(connections_.size());
  for (const auto& [id, conn] : connections_) {
    Interest interest;
    interest.id = id;
    interest.want_read = !conn.executing && !conn.read_closed && !conn.dead;
    interest.want_write = !conn.write_buf.empty();
    out.push_back(interest);
  }
  return out;
}

void ServerCore::set_wake_hook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock{completions_mu_};
  wake_hook_ = std::move(hook);
}

void ServerCore::wait_activity(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock{completions_mu_};
  completions_cv_.wait_for(lock, timeout,
                           [this] { return !completions_.empty(); });
}

void ServerCore::pump_until_idle() {
  for (;;) {
    const bool progress = poll_once();
    if (progress) continue;
    // An executing connection still awaits its completion: the flight is
    // closed and the in-flight count dropped just before the completion is
    // queued, so neither counter below covers that window.
    bool buffered = false;
    for (const auto& [id, conn] : connections_) {
      if (!conn.write_buf.empty() || conn.decoder.buffered() > 0 || conn.executing) {
        buffered = true;
        break;
      }
    }
    const bool busy =
        inflight_.load(std::memory_order_relaxed) != 0 || flights_.open_flights() != 0;
    if (!busy && !buffered) {
      std::lock_guard<std::mutex> lock{completions_mu_};
      if (completions_.empty()) return;
      continue;
    }
    wait_activity(std::chrono::milliseconds{5});
  }
}

void ServerCore::begin_shutdown() {
  shutdown_.store(true, std::memory_order_relaxed);
  // Open shard sessions drain through the executor: their partial journals
  // are persisted (resumable) and their flights complete — as "interrupted"
  // when the replay run sees the cancel flag before finishing.
  std::vector<std::string> keys;
  keys.reserve(sessions_.size());
  for (const auto& [key, session] : sessions_) keys.push_back(key);
  for (const std::string& key : keys) close_session(key);
}

bool ServerCore::drained() const {
  if (inflight_.load(std::memory_order_relaxed) != 0) return false;
  {
    std::lock_guard<std::mutex> lock{completions_mu_};
    if (!completions_.empty()) return false;
  }
  for (const auto& [id, conn] : connections_) {
    if (!conn.write_buf.empty()) return false;
  }
  return true;
}

}  // namespace cloudrepro::serve
