#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/journal.h"
#include "scenario/registry.h"
#include "scenario/result_store.h"
#include "serve/frame.h"
#include "serve/single_flight.h"
#include "serve/transport.h"

namespace cloudrepro::obs {
class MetricsRegistry;
}  // namespace cloudrepro::obs

namespace cloudrepro::runtime {
class ThreadPool;
}  // namespace cloudrepro::runtime

namespace cloudrepro::serve {

struct ServeOptions {
  /// Accept bound; a connection beyond it is closed on arrival (counted in
  /// serve.connections_rejected).
  std::size_t max_connections = 64;
  /// Request frames longer than this are answered with an "oversize" error
  /// and skipped (the connection survives).
  std::size_t max_frame_bytes = 1 << 20;
  /// Bounded execution queue: campaigns in flight (leaders). A GET arriving
  /// with the queue full is answered "busy" immediately instead of queueing
  /// without bound — the request-side backpressure valve.
  std::size_t max_inflight = 16;
  /// Per-connection bytes written per reactor pass. A slow client cannot
  /// monopolize the reactor: its response trickles out one budget per pass
  /// while other connections make progress.
  std::size_t write_budget_per_poll = 64 * 1024;
  /// Per-connection bytes read per reactor pass (read-side fairness).
  std::size_t read_budget_per_poll = 64 * 1024;
  /// A connection whose outbound buffer exceeds this is dropped: the client
  /// is not draining and the buffer must not grow without bound.
  std::size_t max_write_buffer = 8u << 20;
  /// Campaign executor pool size (campaign runs must never block the
  /// reactor thread).
  int executor_threads = 2;
  /// `RunOptions::threads` for each executed campaign.
  int campaign_threads = 1;
  /// Retry hint returned to a worker whose SHARD_PULL found no work.
  int worker_retry_ms = 50;
  /// Scenario catalog for name/hash-addressed GETs; null = builtin().
  const scenario::ScenarioRegistry* registry = nullptr;
};

/// The protocol engine of `cloudrepro serve`: per-connection state machines
/// over the `Transport` seam, a single-flight table collapsing a thundering
/// herd onto one campaign, bounded request/write queues with backpressure,
/// and `serve.*` metrics through the obs registry.
///
/// Threading model (epee-style reactor): all connection state lives on ONE
/// reactor thread — the caller of `add_connection` / `poll_once` — so state
/// machines need no locks. Campaign execution happens on an internal worker
/// pool; completions cross back through a mutex-guarded queue drained at
/// the top of every `poll_once`. Client endpoints of in-memory transports
/// may be driven from any number of other threads (the pipes are
/// thread-safe), which is how the hammer/herd tests run hermetically.
///
/// Counters:
///   serve.connections_accepted / _rejected / _closed
///   serve.bytes_in / serve.bytes_out
///   serve.frames                      complete frames decoded
///   serve.requests_get / _list / _stats
///   serve.requests_bad                unparseable or invalid frames
///   serve.requests_oversize           frames over max_frame_bytes
///   serve.busy_rejected               GETs refused by the inflight bound
///   serve.get_hit                     served from the local cache directly
///   serve.get_executed                leader campaigns completed ok
///   serve.get_errors                  GET outcomes delivered as errors
///   serve.single_flight_leader        flights opened (one campaign each)
///   serve.single_flight_coalesced     requests that shared an open flight
///   serve.slow_client_drops           connections dropped over max_write_buffer
///   serve.requests_shard_pull / _shard_push
///   shard.sessions_opened             distributed campaigns started
///   shard.sessions_finalized          merged complete and published
///   shard.sessions_demoted            fell back to local execution
///   shard.cells_assigned / _completed / _reassigned
///   shard.records_accepted / _duplicate
///   shard.push_rejected               pushes refused by a merge invariant
/// Gauges: serve.connections, serve.queue_depth (inflight campaigns),
///         shard.workers (registered worker connections).
/// Histograms: serve.request_latency_s (GET admission to response enqueue),
///             shard.cell_wall_s (worker-reported cell wall time).
///
/// Distributed campaigns: a leader GET that finds worker connections
/// registered (a prior SHARD_PULL marks its connection) opens a *shard
/// session* instead of submitting the campaign to the executor. The session
/// owns the entry lock and the campaign's core::CampaignRecords; workers
/// pull cell assignments and push journal records; once the records prove
/// the campaign complete, their journal is persisted and replayed through
/// run_scenario (zero new measurements), publishing a summary
/// byte-identical to a single-node run. A worker death requeues its cells;
/// the death of the *last* worker demotes every open session to the
/// ordinary executor path, which resumes from the persisted partial
/// journal. Single-flight semantics are unchanged — the session completes
/// the same flight the leader GET opened, so a herd on an uncached scenario
/// still costs exactly one (now distributed) campaign.
class ServerCore {
 public:
  ServerCore(scenario::ResultStore& store, obs::MetricsRegistry& metrics,
             ServeOptions options = {});
  ~ServerCore();

  ServerCore(const ServerCore&) = delete;
  ServerCore& operator=(const ServerCore&) = delete;

  /// Adopts a transport as a new connection; returns its id, or 0 when the
  /// connection table is full (the transport is closed and counted).
  /// Reactor thread only.
  std::uint64_t add_connection(std::unique_ptr<Transport> transport);

  /// One reactor pass: drain executor completions, then per connection
  /// write (budgeted), read (budgeted), decode, and dispatch. Returns true
  /// when any work was done — the caller's idle detector. Reactor thread
  /// only.
  bool poll_once();

  /// Blocks until an executor completion lands (or `timeout`); the socket
  /// loop and test pumps park here instead of spinning.
  void wait_activity(std::chrono::milliseconds timeout);

  /// Drives poll_once / wait_activity until no connection has buffered
  /// input or output or awaits a completion, and no campaign is in flight.
  /// Test harness helper.
  void pump_until_idle();

  /// New frames get "shutting_down" errors; in-flight campaigns are
  /// cancelled cooperatively (journals flushed — resumable), open shard
  /// sessions persist their partial journals and drain through the
  /// executor, outcomes are still delivered, and write buffers drain.
  /// Reactor thread only.
  void begin_shutdown();
  /// True once nothing is in flight and every response byte is out.
  bool drained() const;

  std::size_t connection_count() const { return connections_.size(); }
  std::size_t inflight() const { return inflight_.load(std::memory_order_relaxed); }

  /// Readiness interest per connection, for an external poll(2) loop.
  struct Interest {
    std::uint64_t id = 0;
    bool want_read = false;
    bool want_write = false;
  };
  std::vector<Interest> interests() const;

  /// Invoked (from executor threads) whenever a completion lands; a socket
  /// loop writes its self-pipe here to interrupt poll(2).
  void set_wake_hook(std::function<void()> hook);

 private:
  struct Connection {
    std::uint64_t id = 0;
    std::unique_ptr<Transport> transport;
    FrameDecoder decoder;
    std::string write_buf;
    bool executing = false;    ///< A GET is in flight; reads are paused.
    bool read_closed = false;  ///< Peer EOF seen; flush then drop.
    bool dead = false;         ///< Marked for removal at the end of the pass.
    bool is_worker = false;    ///< Sent a SHARD_PULL; cells may be assigned.
    std::chrono::steady_clock::time_point request_start{};

    Connection(std::uint64_t id_, std::unique_ptr<Transport> t,
               std::size_t max_frame)
        : id(id_), transport(std::move(t)), decoder(max_frame) {}
  };

  struct Completion {
    std::uint64_t connection_id = 0;
    std::string response;  ///< Without trailing newline.
    bool ok = false;
  };

  /// One open distributed campaign, keyed in `sessions_` by the cache entry
  /// key (the single-flight key — the flight the leader GET opened is the
  /// flight this session completes). Reactor thread only.
  struct ShardSession {
    scenario::ScenarioSpec spec;
    std::uint64_t seed = 0;
    std::filesystem::path journal_path;
    std::unique_ptr<core::CampaignRecords> records;
    /// Held for the session's whole life; shared_ptr because the finalize
    /// closure (a copyable std::function) releases it on an executor thread
    /// after persisting the journal.
    std::shared_ptr<scenario::EntryLock> lock;
    /// Unassigned incomplete cells, in canonical execution order.
    std::deque<std::size_t> pending;
    /// connection id -> cells currently out with that worker.
    std::map<std::uint64_t, std::vector<std::size_t>> assigned;
  };

  // Reactor-side steps.
  bool drain_completions();
  bool pump_writes(Connection& conn);
  bool pump_reads(Connection& conn);
  bool process_frames(Connection& conn);
  void handle_frame(Connection& conn, const std::string& frame);
  void handle_get(Connection& conn, const struct Request& request);
  void respond(Connection& conn, const std::string& response);
  void observe_latency(const Connection& conn);

  // Shard coordination (reactor thread only).
  void handle_shard_pull(Connection& conn, const struct Request& request);
  void handle_shard_push(Connection& conn, const struct Request& request);
  /// Opens a session for the flight's leader; false = fall back to the
  /// executor (cross-process lock holder, or session setup failed).
  bool open_shard_session(const scenario::ScenarioSpec& spec,
                          std::uint64_t seed, const std::string& key);
  /// Persists the session's journal (complete or partial), erases it, and
  /// hands the flight to the executor: release the entry lock,
  /// replay/resume through run_scenario, complete the flight.
  void close_session(const std::string& key);
  /// Worker connection going away: requeue its cells; when it was the last
  /// worker, demote every open session to local execution.
  void forget_worker(const Connection& conn);
  static void release_assignment(ShardSession& session, std::uint64_t conn_id,
                                 std::size_t cell, bool requeue);

  // Request plumbing.
  const scenario::ScenarioSpec* resolve_by_name(const std::string& name) const;
  const scenario::ScenarioSpec* resolve_by_hash(const std::string& hash) const;
  /// GET addressing: resolves the request's spec, answering the error
  /// itself (and returning null) when nothing matches.
  const scenario::ScenarioSpec* resolve_request_spec(
      Connection& conn, const struct Request& request);
  std::string list_response() const;
  std::string stats_response();
  FlightOutcome execute(const scenario::ScenarioSpec& spec, std::uint64_t seed);
  void count(const char* name, double delta = 1.0);

  scenario::ResultStore& store_;
  obs::MetricsRegistry& metrics_;
  ServeOptions options_;
  const scenario::ScenarioRegistry* registry_;
  /// content hash -> registry spec, built once at construction: what makes
  /// `GET {"hash": ...}` resolvable without shipping the spec.
  std::map<std::string, const scenario::ScenarioSpec*> hash_index_;

  std::map<std::uint64_t, Connection> connections_;
  std::uint64_t next_id_ = 1;
  std::atomic<bool> shutdown_{false};

  /// Open distributed campaigns by entry key, plus the count of connections
  /// registered as workers. Reactor thread only.
  std::map<std::string, ShardSession> sessions_;
  std::size_t worker_count_ = 0;

  SingleFlight flights_;
  std::unique_ptr<runtime::ThreadPool> executor_;
  std::atomic<std::size_t> inflight_{0};

  mutable std::mutex completions_mu_;
  std::condition_variable completions_cv_;
  std::deque<Completion> completions_;
  std::function<void()> wake_hook_;  ///< Guarded by completions_mu_.
};

}  // namespace cloudrepro::serve
