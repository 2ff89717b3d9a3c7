// The shard coordinator inside ServerCore, driven hermetically over
// in-memory transports: worker registration, pull/push assignment flow,
// conflict rejection, worker death (reassignment and demotion to local
// execution), shutdown with an open session, and the blocking worker loop
// end to end across worker counts, thread counts, adaptive stopping and
// warm starts. The invariant under test everywhere: the GET response's
// summary — and the journal behind it — is byte-identical to a single-node
// run, no matter how the cells were distributed.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/journal.h"
#include "obs/metrics.h"
#include "scenario/runner.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "serve/worker.h"

namespace cloudrepro::serve {
namespace {

namespace fs = std::filesystem;
using scenario::ResultStore;
using scenario::ScenarioSpec;

ScenarioSpec tiny_spec(const std::string& name = "shard-serve-test") {
  ScenarioSpec spec;
  spec.name = name;
  spec.workloads = {{"hibench", "TS", std::nullopt}, {"hibench", "KM", std::nullopt}};
  spec.budgets = {5000.0, 10.0};
  spec.repetitions = 3;
  return spec;
}

struct TestClient {
  std::unique_ptr<MemoryTransport> transport;
  FrameDecoder decoder{64u << 20};
  std::uint64_t id = 0;
};

TestClient connect(ServerCore& core, MemoryPipeOptions pipe = {}) {
  auto [client_end, server_end] = make_memory_pair(pipe);
  TestClient client;
  client.transport = std::move(client_end);
  client.id = core.add_connection(std::move(server_end));
  return client;
}

void send(ServerCore& core, TestClient& client, const std::string& frame) {
  std::string wire = frame + "\n";
  std::string_view data = wire;
  while (!data.empty()) {
    const IoResult result = client.transport->write(data);
    if (result.status == IoStatus::kOk) {
      data.remove_prefix(result.bytes);
    } else {
      ASSERT_EQ(result.status, IoStatus::kWouldBlock);
      core.poll_once();
    }
  }
}

std::optional<Response> recv(ServerCore& core, TestClient& client,
                             std::chrono::seconds timeout = std::chrono::seconds{120}) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::string frame;
  for (;;) {
    if (client.decoder.next(frame) == FrameDecoder::Status::kFrame) {
      return parse_response(frame);
    }
    char buffer[4096];
    const IoResult result = client.transport->read(buffer, sizeof buffer);
    if (result.status == IoStatus::kOk) {
      client.decoder.push({buffer, result.bytes});
      continue;
    }
    if (result.status == IoStatus::kClosed) return std::nullopt;
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "recv timed out";
      return std::nullopt;
    }
    if (!core.poll_once()) {
      core.wait_activity(std::chrono::milliseconds{1});
    }
  }
}

ScenarioSpec adaptive_spec() {
  ScenarioSpec spec;
  spec.name = "shard-serve-adaptive";
  spec.workloads = {{"hibench", "TS", std::nullopt}, {"hibench", "KM", std::nullopt}};
  spec.budgets = {5000.0};
  spec.engine.machine_noise_cv = 0.05;
  spec.repetitions = 40;  // Cap; the stopping rule decides.
  spec.confirm.enabled = true;
  spec.confirm.adaptive = true;
  spec.confirm.error_bound = 0.10;
  spec.confirm.min_repetitions = 8;
  return spec;
}

/// Runs an assignment's cell through the campaign task loop, as `run_worker`
/// does, and returns the record lines it hands back.
std::vector<std::string> run_assignment(const ShardAssignment& assignment) {
  const auto cells = scenario::build_cells(*assignment.spec);
  const auto options = scenario::campaign_options(*assignment.spec);
  core::CampaignRecords records{cells, options, assignment.seed};
  records.push(assignment.cell, assignment.resume);
  std::vector<std::string> lines;
  EXPECT_TRUE(core::run_cells(
      cells, options, assignment.seed, {assignment.cell}, records,
      [&lines](const std::string& line) { lines.push_back(line); }));
  return lines;
}

std::string slurp(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in) << "missing " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class ShardServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Parameterized names ("...Bytes/w2_t4") carry a '/', which must not nest.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '-');
    root_ = fs::path{::testing::TempDir()} / ("cloudrepro-shardserve-" + name);
    fs::remove_all(root_);
    store_.emplace(root_ / "cache", &metrics_);
  }
  void TearDown() override {
    core_.reset();
    store_.reset();
    fs::remove_all(root_);
  }

  ServerCore& core(ServeOptions options = {}) {
    if (!core_) core_.emplace(*store_, metrics_, std::move(options));
    return *core_;
  }

  /// Serial single-node reference: summary and journal bytes.
  struct Reference {
    std::string summary;
    std::string journal;
  };
  Reference reference(const ScenarioSpec& spec) {
    ResultStore store{root_ / "reference"};
    scenario::RunOptions options;
    options.threads = 1;
    options.store = &store;
    Reference ref;
    ref.summary = scenario::run_scenario(spec, options).summary;
    ref.journal = slurp(store.journal_path(spec, spec.seed));
    return ref;
  }
  std::string reference_summary(const ScenarioSpec& spec) {
    return reference(spec).summary;
  }

  /// Registers `client` as a worker: one SHARD_PULL, expecting idle.
  void register_worker(TestClient& client, const std::string& name) {
    send(core(), client, shard_pull_request_frame(name));
    const auto response = recv(core(), client);
    ASSERT_TRUE(response && response->ok);
    ASSERT_TRUE(parse_shard_pull_response(response->body).idle);
  }

  /// Pulls once; nullopt when the coordinator answered idle.
  std::optional<ShardAssignment> pull(TestClient& client, const std::string& name) {
    send(core(), client, shard_pull_request_frame(name));
    const auto response = recv(core(), client);
    if (!response || !response->ok) {
      ADD_FAILURE() << "SHARD_PULL failed";
      return std::nullopt;
    }
    ShardAssignment assignment = parse_shard_pull_response(response->body);
    if (assignment.idle) return std::nullopt;
    return assignment;
  }

  /// Executes one assignment honestly and pushes the result; returns the ack.
  ShardPushAck execute_and_push(TestClient& client, const std::string& name,
                                const ShardAssignment& assignment) {
    send(core(), client,
         shard_push_request_frame(name, assignment.key, assignment.cell,
                                  run_assignment(assignment), 0.01));
    const auto response = recv(core(), client);
    EXPECT_TRUE(response && response->ok);
    return parse_shard_push_response(response->body);
  }

  /// Drives `client` as the only worker until the campaign completes.
  void drain_as_worker(TestClient& client, const std::string& name) {
    for (int i = 0; i < 200; ++i) {
      const auto assignment = pull(client, name);
      if (!assignment) {
        core().poll_once();  // GET may not have opened the session yet.
        continue;
      }
      if (execute_and_push(client, name, *assignment).campaign_complete) return;
    }
    FAIL() << "campaign did not complete within the pull budget";
  }

  fs::path root_;
  obs::MetricsRegistry metrics_;
  std::optional<ResultStore> store_;
  std::optional<ServerCore> core_;
};

TEST_F(ShardServeTest, PullPushFlowServesByteIdenticalSummary) {
  const auto spec = tiny_spec();
  TestClient worker = connect(core());
  register_worker(worker, "w1");

  // Before any GET: the worker is registered and nothing is published.
  EXPECT_EQ(metrics_.gauge("shard.workers").value(), 1.0);
  EXPECT_FALSE(store_->has_summary(spec, spec.seed));

  // The GET is the sole admission path; with a worker connected the leader
  // opens a shard session instead of executing locally.
  TestClient client = connect(core());
  send(core(), client, get_request_frame(spec, std::nullopt));
  drain_as_worker(worker, "w1");

  const auto get = recv(core(), client);
  ASSERT_TRUE(get && get->ok);
  // The publishing step replays the merged journal (journal present, no
  // summary yet), so the disposition reads as a partial-entry completion.
  EXPECT_EQ(get->hit, "partial");
  EXPECT_EQ(get->summary, reference_summary(spec));

  // Post-completion state and accounting.
  EXPECT_TRUE(store_->has_summary(spec, spec.seed));
  EXPECT_EQ(metrics_.counter("shard.sessions_opened").value(), 1.0);
  EXPECT_EQ(metrics_.counter("shard.sessions_finalized").value(), 1.0);
  EXPECT_EQ(metrics_.counter("shard.cells_completed").value(), 4.0);

  // A second GET is a pure cache hit — no new session.
  send(core(), client, get_request_frame(spec, std::nullopt));
  const auto warm = recv(core(), client);
  ASSERT_TRUE(warm && warm->ok);
  EXPECT_EQ(warm->hit, "hit");
  EXPECT_EQ(warm->summary, get->summary);
  EXPECT_EQ(metrics_.counter("shard.sessions_opened").value(), 1.0);
}

TEST_F(ShardServeTest, ConflictingPushIsTypedRejectionAndSessionSurvives) {
  const auto spec = tiny_spec();
  TestClient worker = connect(core());
  register_worker(worker, "w1");
  TestClient client = connect(core());
  send(core(), client, get_request_frame(spec, std::nullopt));

  std::optional<ShardAssignment> assignment;
  for (int i = 0; i < 50 && !assignment; ++i) {
    assignment = pull(worker, "w1");
    if (!assignment) core().poll_once();
  }
  ASSERT_TRUE(assignment);

  // Push one honest record, then a conflicting one for the same repetition
  // (valid checksum, different value) — a version-skewed or corrupt worker.
  const auto lines = run_assignment(*assignment);
  send(core(), worker,
       shard_push_request_frame("w1", assignment->key, assignment->cell,
                                {lines[0]}, 0.0));
  auto ack_response = recv(core(), worker);
  ASSERT_TRUE(ack_response && ack_response->ok);

  core::JournalRecord record;
  ASSERT_TRUE(core::parse_journal_line(lines[0], record));
  record.value += 1.0;
  send(core(), worker,
       shard_push_request_frame("w1", assignment->key, assignment->cell,
                                {core::journal_line(record)}, 0.0));
  const auto rejection = recv(core(), worker);
  ASSERT_TRUE(rejection);
  EXPECT_FALSE(rejection->ok);
  EXPECT_EQ(rejection->error_code, "conflict");
  EXPECT_EQ(metrics_.counter("shard.push_rejected").value(), 1.0);

  // The session survived the poisoned push; honest work completes it and
  // the summary is still the single-node bytes.
  drain_as_worker(worker, "w1");
  const auto get = recv(core(), client);
  ASSERT_TRUE(get && get->ok);
  EXPECT_EQ(get->summary, reference_summary(spec));
}

TEST_F(ShardServeTest, DeadWorkersCellsAreReassigned) {
  const auto spec = tiny_spec();
  TestClient doomed = connect(core());
  TestClient survivor = connect(core());
  register_worker(doomed, "doomed");
  register_worker(survivor, "survivor");

  TestClient client = connect(core());
  send(core(), client, get_request_frame(spec, std::nullopt));

  // The doomed worker claims a cell and dies without pushing a byte.
  std::optional<ShardAssignment> claimed;
  for (int i = 0; i < 50 && !claimed; ++i) {
    claimed = pull(doomed, "doomed");
    if (!claimed) core().poll_once();
  }
  ASSERT_TRUE(claimed);
  doomed.transport->close();
  // Let the reactor notice the dead connection and requeue its cell.
  for (int i = 0; i < 50 && metrics_.counter("shard.cells_reassigned").value() < 1.0;
       ++i) {
    if (!core().poll_once()) core().wait_activity(std::chrono::milliseconds{1});
  }
  EXPECT_GE(metrics_.counter("shard.cells_reassigned").value(), 1.0);

  // The survivor finishes everything, including the orphaned cell.
  drain_as_worker(survivor, "survivor");
  const auto get = recv(core(), client);
  ASSERT_TRUE(get && get->ok);
  EXPECT_EQ(get->summary, reference_summary(spec));
}

TEST_F(ShardServeTest, LastWorkerDeathDemotesToLocalExecution) {
  const auto spec = tiny_spec();
  TestClient worker = connect(core());
  register_worker(worker, "w1");
  TestClient client = connect(core());
  send(core(), client, get_request_frame(spec, std::nullopt));

  // The worker completes one cell so demotion has partial progress to keep,
  // then dies.
  std::optional<ShardAssignment> assignment;
  for (int i = 0; i < 50 && !assignment; ++i) {
    assignment = pull(worker, "w1");
    if (!assignment) core().poll_once();
  }
  ASSERT_TRUE(assignment);
  execute_and_push(worker, "w1", *assignment);
  worker.transport->close();

  // With no workers left the session demotes: the coordinator persists the
  // partial journal and finishes the campaign itself. The waiting GET still
  // gets single-node bytes.
  const auto get = recv(core(), client);
  ASSERT_TRUE(get && get->ok);
  EXPECT_EQ(get->summary, reference_summary(spec));
  EXPECT_EQ(metrics_.counter("shard.sessions_demoted").value(), 1.0);
  EXPECT_EQ(metrics_.counter("shard.cells_completed").value(), 1.0);
}

TEST_F(ShardServeTest, ShutdownWithOpenSessionInterruptsAndResumes) {
  const auto spec = tiny_spec();
  TestClient worker = connect(core());
  register_worker(worker, "w1");
  TestClient client = connect(core());
  send(core(), client, get_request_frame(spec, std::nullopt));

  std::optional<ShardAssignment> assignment;
  for (int i = 0; i < 50 && !assignment; ++i) {
    assignment = pull(worker, "w1");
    if (!assignment) core().poll_once();
  }
  ASSERT_TRUE(assignment);
  execute_and_push(worker, "w1", *assignment);

  // Shutdown with the session still open: the partial journal is persisted
  // and the replay run sees the cancel flag, so the waiting GET is told
  // "interrupted" and nothing is published.
  core().begin_shutdown();
  const auto get = recv(core(), client);
  ASSERT_TRUE(get);
  EXPECT_FALSE(get->ok);
  EXPECT_EQ(get->error_code, "interrupted");
  EXPECT_FALSE(store_->has_summary(spec, spec.seed));

  // The pushed cell survived: a later single-node run resumes it and lands
  // on the reference bytes.
  scenario::RunOptions options;
  options.threads = 1;
  options.store = &*store_;
  const auto resumed = scenario::run_scenario(spec, options);
  EXPECT_TRUE(resumed.complete);
  EXPECT_GE(resumed.resumed_measurements, 3u);
  EXPECT_EQ(resumed.summary, reference_summary(spec));
}

TEST_F(ShardServeTest, PushForUnknownSessionIsTypedError) {
  TestClient worker = connect(core());
  register_worker(worker, "w1");
  send(core(), worker,
       shard_push_request_frame("w1", "no-such-session", 0, {}, 0.0));
  const auto response = recv(core(), worker);
  ASSERT_TRUE(response);
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->error_code, "unknown_session");
}

TEST_F(ShardServeTest, RunWorkerLoopEndToEnd) {
  const auto spec = tiny_spec();
  ServeOptions serve_options;
  serve_options.worker_retry_ms = 1;  // Fast idle polling for the test.
  ServerCore& server = core(serve_options);

  // All connections are added before the reactor thread starts: ServerCore
  // is reactor-thread-only, so the only thread that may touch it once the
  // pump is running is the pump itself.
  auto [worker_a_end, worker_a_server] = make_memory_pair();
  auto [worker_b_end, worker_b_server] = make_memory_pair();
  auto [get_end, get_server_end] = make_memory_pair();
  server.add_connection(std::move(worker_a_server));
  server.add_connection(std::move(worker_b_server));
  server.add_connection(std::move(get_server_end));

  std::atomic<bool> stop{false};
  std::thread reactor{[&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (!server.poll_once()) server.wait_activity(std::chrono::milliseconds{1});
    }
  }};

  auto worker_body = [](std::unique_ptr<MemoryTransport> transport,
                        const std::string& name, WorkerStats* stats) {
    WorkerOptions options;
    options.name = name;
    options.threads = 2;
    options.idle_sleep_ms = 1;
    options.max_idle_polls = 500;  // Generous: exits well after completion.
    *stats = run_worker(std::move(transport), options);
  };
  WorkerStats stats_a;
  WorkerStats stats_b;
  std::thread worker_a{worker_body, std::move(worker_a_end), "worker-a", &stats_a};
  std::thread worker_b{worker_body, std::move(worker_b_end), "worker-b", &stats_b};

  // Both workers must be registered before the GET, or the leader sees no
  // workers and executes the campaign locally.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{30};
  while (metrics_.gauge("shard.workers").value() < 2.0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  ASSERT_EQ(metrics_.gauge("shard.workers").value(), 2.0);

  FetchClient fetch{std::move(get_end)};
  const Response response = fetch.get(spec);
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(response.summary, reference_summary(spec));

  worker_a.join();
  worker_b.join();
  stop.store(true);
  reactor.join();

  // Every cell was completed exactly once across the two workers.
  EXPECT_EQ(stats_a.cells_completed + stats_b.cells_completed, 4u);
  EXPECT_GT(stats_a.records_pushed + stats_b.records_pushed, 0u);
}

/// One distributed run through real `run_worker` loops: `workers` loops at
/// `threads` measurement threads each, optionally over a coordinator store
/// that already holds a single-node journal cut after 5 measurements.
struct MatrixCase {
  const char* name;
  bool adaptive = false;
  std::size_t workers = 1;
  int threads = 1;
  bool warm = false;
};

// Keeps the printed parameter (and so the registered test name) readable.
void PrintTo(const MatrixCase& param, std::ostream* os) { *os << param.name; }

class ShardServeMatrixTest : public ShardServeTest,
                             public ::testing::WithParamInterface<MatrixCase> {};

TEST_P(ShardServeMatrixTest, MatchesSerialSummaryAndJournalBytes) {
  const MatrixCase& param = GetParam();
  const ScenarioSpec spec = param.adaptive ? adaptive_spec() : tiny_spec();
  const Reference ref = reference(spec);

  if (param.warm) {
    scenario::RunOptions partial;
    partial.threads = 1;
    partial.store = &*store_;
    partial.max_measurements = 5;
    ASSERT_FALSE(scenario::run_scenario(spec, partial).complete);
  }

  ServeOptions serve_options;
  serve_options.worker_retry_ms = 1;
  ServerCore& server = core(serve_options);
  // Every connection is added before the reactor thread starts (ServerCore
  // is reactor-thread-only).
  std::vector<std::unique_ptr<MemoryTransport>> worker_ends;
  for (std::size_t w = 0; w < param.workers; ++w) {
    auto [client_end, server_end] = make_memory_pair();
    server.add_connection(std::move(server_end));
    worker_ends.push_back(std::move(client_end));
  }
  auto [get_end, get_server_end] = make_memory_pair();
  server.add_connection(std::move(get_server_end));

  std::atomic<bool> stop{false};
  std::thread reactor{[&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (!server.poll_once()) server.wait_activity(std::chrono::milliseconds{1});
    }
  }};
  std::atomic<bool> cancel{false};
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < param.workers; ++w) {
    workers.emplace_back([&, w, transport = std::move(worker_ends[w])]() mutable {
      WorkerOptions options;
      options.name = "worker-" + std::to_string(w);
      options.threads = param.threads;
      options.idle_sleep_ms = 1;
      options.cancel = &cancel;
      try {
        run_worker(std::move(transport), options);
      } catch (const std::exception& error) {
        ADD_FAILURE() << options.name << ": " << error.what();
      }
    });
  }

  // Every worker registers before the GET, or the leader would execute the
  // campaign locally instead of opening a shard session.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{30};
  while (metrics_.gauge("shard.workers").value() <
             static_cast<double>(param.workers) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  EXPECT_EQ(metrics_.gauge("shard.workers").value(),
            static_cast<double>(param.workers));

  // The threads are joined on every path, so a failed GET is recorded
  // rather than thrown past them.
  Response cold;
  Response warm;
  try {
    FetchClient fetch{std::move(get_end)};
    cold = fetch.get(spec);
    warm = fetch.get(spec);
  } catch (const std::exception& error) {
    ADD_FAILURE() << "GET failed: " << error.what();
  }
  cancel.store(true);
  for (auto& worker : workers) worker.join();
  stop.store(true);
  reactor.join();

  ASSERT_TRUE(cold.ok) << cold.error_code << ": " << cold.error_message;
  EXPECT_EQ(cold.summary, ref.summary);
  EXPECT_EQ(slurp(store_->journal_path(spec, spec.seed)), ref.journal);
  EXPECT_EQ(metrics_.counter("shard.sessions_finalized").value(), 1.0);
  // Every record reached the coordinator exactly once; a warm start ships
  // its 5 journaled measurements as resume lines instead of re-running them.
  const auto records = static_cast<double>(
      std::count(ref.journal.begin(), ref.journal.end(), '\n') - 1);
  EXPECT_EQ(metrics_.counter("shard.records_accepted").value(),
            records - (param.warm ? 5.0 : 0.0));
  EXPECT_EQ(metrics_.counter("shard.records_duplicate").value(), 0.0);
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.hit, "hit");
  EXPECT_EQ(warm.summary, ref.summary);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ShardServeMatrixTest,
    ::testing::Values(MatrixCase{"w1_t1", false, 1, 1},
                      MatrixCase{"w1_t4", false, 1, 4},
                      MatrixCase{"w2_t1", false, 2, 1},
                      MatrixCase{"w2_t4", false, 2, 4},
                      MatrixCase{"w4_t1", false, 4, 1},
                      MatrixCase{"w4_t4", false, 4, 4},
                      MatrixCase{"adaptive_w2", true, 2, 1},
                      MatrixCase{"adaptive_w3", true, 3, 1},
                      MatrixCase{"warm_w4", false, 4, 1, true},
                      MatrixCase{"warm_adaptive_w2", true, 2, 1, true}),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      return std::string{info.param.name};
    });

TEST_F(ShardServeTest, FetchTimesOutAgainstPeerThatNeverDelivers) {
  // The connection opens but the "server" never reads or writes — the
  // MemoryTransport analogue of a SIGSTOPped daemon behind an accepting
  // socket. The deadline must fire instead of blocking forever.
  auto [client_end, server_end] = make_memory_pair();
  FetchClient::Options options;
  options.timeout = std::chrono::milliseconds{200};
  FetchClient client{std::move(client_end), options};

  const auto started = std::chrono::steady_clock::now();
  EXPECT_THROW(client.request(stats_request_frame()), FetchTimeout);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_GE(elapsed, std::chrono::milliseconds{200});
  EXPECT_LT(elapsed, std::chrono::seconds{30});
  (void)server_end;  // Alive but silent for the whole exchange.
}

}  // namespace
}  // namespace cloudrepro::serve
