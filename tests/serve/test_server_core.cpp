// ServerCore driven hermetically over in-memory transports: per-connection
// state machines under torn frames, pipelining, garbage, oversize lines,
// backpressure (busy + slow-client), connection limits and corrupt-summary
// recovery — no sockets anywhere.

#include "serve/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "scenario/json.h"
#include "scenario/runner.h"
#include "serve/protocol.h"
#include "serve/single_flight.h"
#include "serve/transport.h"

namespace cloudrepro::serve {
namespace {

namespace fs = std::filesystem;
using scenario::Json;
using scenario::ResultStore;
using scenario::ScenarioSpec;

ScenarioSpec tiny_spec(const std::string& name = "serve-test") {
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

/// Writes one frame from the test thread, pumping the reactor through any
/// kWouldBlock (tiny pipes) so the send always completes.
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

/// Pumps the reactor until the client has one whole response line (or the
/// connection dies — nullopt).
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

class ServeCoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path{::testing::TempDir()} /
            ("cloudrepro-serve-" + std::string{::testing::UnitTest::GetInstance()
                                                   ->current_test_info()
                                                   ->name()});
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

  /// Reference summary bytes via the runner against a *separate* store.
  std::string reference_summary(const ScenarioSpec& spec) {
    ResultStore store{root_ / "reference"};
    scenario::RunOptions options;
    options.store = &store;
    return scenario::run_scenario(spec, options).summary;
  }

  fs::path root_;
  obs::MetricsRegistry metrics_;
  std::optional<ResultStore> store_;
  std::optional<ServerCore> core_;
};

TEST_F(ServeCoreTest, ListAnswersCatalogAndCache) {
  TestClient client = connect(core());
  send(core(), client, list_request_frame());
  const auto response = recv(core(), client);
  ASSERT_TRUE(response && response->ok);
  const Json body = Json::parse(response->body);
  EXPECT_TRUE(body.at("ok").as_bool());
  EXPECT_FALSE(body.at("scenarios").as_array().empty());
  EXPECT_TRUE(body.at("cache").as_array().empty());
}

TEST_F(ServeCoreTest, ColdGetExecutesOnceThenCachedGetHits) {
  const ScenarioSpec spec = tiny_spec();
  TestClient client = connect(core());

  send(core(), client, get_request_frame(spec, std::nullopt));
  const auto cold = recv(core(), client);
  ASSERT_TRUE(cold && cold->ok);
  EXPECT_EQ(cold->hit, "miss");
  EXPECT_EQ(cold->hash, spec.content_hash());
  EXPECT_EQ(cold->seed, spec.seed);
  EXPECT_EQ(cold->summary, reference_summary(spec))
      << "served bytes must be identical to `cloudrepro run` output";

  send(core(), client, get_request_frame(spec, std::nullopt));
  const auto warm = recv(core(), client);
  ASSERT_TRUE(warm && warm->ok);
  EXPECT_EQ(warm->hit, "hit");
  EXPECT_EQ(warm->summary, cold->summary);

  EXPECT_EQ(metrics_.counter_value("serve.get_executed"), 1.0);
  EXPECT_EQ(metrics_.counter_value("serve.get_hit"), 1.0);
  EXPECT_EQ(metrics_.counter_value("serve.single_flight_leader"), 1.0);
  // The hit was served via peek, not lookup: campaign admissions stay 1.
  EXPECT_EQ(metrics_.counter_value("scenario.cache.miss"), 1.0);
  EXPECT_EQ(metrics_.counter_value("scenario.cache.hit"), 0.0);
}

TEST_F(ServeCoreTest, SingleByteTornFramesServeIdentically) {
  MemoryPipeOptions pipe;
  pipe.max_read_chunk = 1;  // Every server read returns exactly one byte.
  TestClient client = connect(core(), pipe);
  send(core(), client, stats_request_frame());
  const auto response = recv(core(), client);
  ASSERT_TRUE(response && response->ok);
  EXPECT_NE(response->body.find("\"metrics\""), std::string::npos);
}

TEST_F(ServeCoreTest, PipelinedRequestsAnsweredInOrder) {
  const ScenarioSpec spec = tiny_spec();
  TestClient client = connect(core());
  // One write carrying three requests; the GET parks the connection, so the
  // trailing STATS must wait for the campaign and still answer in order.
  send(core(), client,
       list_request_frame() + "\n" + get_request_frame(spec, std::nullopt) +
           "\n" + stats_request_frame());

  const auto first = recv(core(), client);
  ASSERT_TRUE(first && first->ok);
  EXPECT_NE(first->body.find("\"scenarios\""), std::string::npos);

  const auto second = recv(core(), client);
  ASSERT_TRUE(second && second->ok);
  EXPECT_EQ(second->hit, "miss");

  const auto third = recv(core(), client);
  ASSERT_TRUE(third && third->ok);
  EXPECT_NE(third->body.find("\"metrics\""), std::string::npos);
}

TEST_F(ServeCoreTest, GarbageFrameAnswersErrorAndConnectionSurvives) {
  TestClient client = connect(core());
  send(core(), client, "this is not json");
  const auto error = recv(core(), client);
  ASSERT_TRUE(error);
  EXPECT_FALSE(error->ok);
  EXPECT_EQ(error->error_code, "bad_json");

  send(core(), client, list_request_frame());
  const auto list = recv(core(), client);
  ASSERT_TRUE(list && list->ok);
  EXPECT_EQ(metrics_.counter_value("serve.requests_bad"), 1.0);
  EXPECT_EQ(core().connection_count(), 1u);
}

TEST_F(ServeCoreTest, OversizeFrameAnswersErrorAndResyncs) {
  ServeOptions options;
  options.max_frame_bytes = 64;
  TestClient client = connect(core(std::move(options)));

  send(core(), client, std::string(1000, 'x'));
  const auto error = recv(core(), client);
  ASSERT_TRUE(error);
  EXPECT_FALSE(error->ok);
  EXPECT_EQ(error->error_code, "oversize");

  send(core(), client, list_request_frame());
  const auto list = recv(core(), client);
  ASSERT_TRUE(list && list->ok);
  EXPECT_EQ(metrics_.counter_value("serve.requests_oversize"), 1.0);
}

TEST_F(ServeCoreTest, UnknownScenarioAndHashAnswerErrors) {
  TestClient client = connect(core());
  send(core(), client, get_request_frame_by_name("no-such-scenario", {}));
  auto response = recv(core(), client);
  ASSERT_TRUE(response);
  EXPECT_EQ(response->error_code, "unknown_scenario");

  send(core(), client, get_request_frame_by_hash(std::string(64, 'f'), 1));
  response = recv(core(), client);
  ASSERT_TRUE(response);
  EXPECT_EQ(response->error_code, "unknown_hash");
}

TEST_F(ServeCoreTest, GetByHashResolvesAgainstRegistryIndex) {
  const std::string hash =
      scenario::ScenarioRegistry::builtin().at("ci-smoke").content_hash();
  TestClient client = connect(core());
  send(core(), client,
       get_request_frame_by_hash(
           hash, scenario::ScenarioRegistry::builtin().at("ci-smoke").seed));
  const auto response = recv(core(), client);
  ASSERT_TRUE(response && response->ok);
  EXPECT_EQ(response->hash, hash);
}

TEST_F(ServeCoreTest, ConnectionTableBoundRejectsTheOverflow) {
  ServeOptions options;
  options.max_connections = 2;
  TestClient a = connect(core(std::move(options)));
  TestClient b = connect(core());
  TestClient c = connect(core());
  EXPECT_NE(a.id, 0u);
  EXPECT_NE(b.id, 0u);
  EXPECT_EQ(c.id, 0u);  // Closed on arrival.
  char byte = 0;
  EXPECT_EQ(c.transport->read(&byte, 1).status, IoStatus::kClosed);
  EXPECT_EQ(metrics_.counter_value("serve.connections_rejected"), 1.0);
  EXPECT_EQ(core().connection_count(), 2u);
}

TEST_F(ServeCoreTest, FullExecutionQueueAnswersBusy) {
  // The test holds A's entry lock, so A's leader waits in run_scenario's
  // lock-poll loop and keeps the single inflight slot — the deterministic
  // way to observe the busy backpressure path. The holder is this process
  // and registered, so it reads as live, never as a stale lock to steal.
  const ScenarioSpec spec_a = tiny_spec("serve-busy-a");
  scenario::EntryLock gate = store_->try_lock(spec_a, spec_a.seed);
  ASSERT_TRUE(gate);
  ServeOptions options;
  options.max_inflight = 1;
  core(std::move(options));

  TestClient a = connect(core());
  TestClient b = connect(core());

  send(core(), a, get_request_frame(spec_a, std::nullopt));
  core().poll_once();  // Admit A: leader occupies the single inflight slot.
  ASSERT_EQ(core().inflight(), 1u);

  send(core(), b, get_request_frame(tiny_spec("serve-busy-b"), std::nullopt));
  const auto busy = recv(core(), b);
  ASSERT_TRUE(busy);
  EXPECT_FALSE(busy->ok);
  EXPECT_EQ(busy->error_code, "busy");
  EXPECT_EQ(metrics_.counter_value("serve.busy_rejected"), 1.0);

  gate.release();
  const auto ok = recv(core(), a);
  ASSERT_TRUE(ok && ok->ok);
  EXPECT_EQ(ok->hit, "miss");
}

TEST_F(ServeCoreTest, SlowClientOverWriteBufferBoundIsDropped) {
  const ScenarioSpec spec = tiny_spec();
  {
    scenario::RunOptions run;
    run.store = &*store_;
    scenario::run_scenario(spec, run);  // Warm the cache.
  }
  ServeOptions options;
  options.max_write_buffer = 64;  // Any summary response overflows this.
  MemoryPipeOptions pipe;
  pipe.capacity = 8;  // ...and the client is not draining.
  TestClient client = connect(core(std::move(options)), pipe);

  send(core(), client, get_request_frame(spec, std::nullopt));
  core().poll_once();
  core().poll_once();
  EXPECT_EQ(core().connection_count(), 0u);
  EXPECT_EQ(metrics_.counter_value("serve.slow_client_drops"), 1.0);
  EXPECT_EQ(metrics_.counter_value("serve.connections_closed"), 1.0);
}

TEST_F(ServeCoreTest, ClientVanishingMidCampaignIsHarmless) {
  const ScenarioSpec spec = tiny_spec();
  TestClient client = connect(core());
  send(core(), client, get_request_frame(spec, std::nullopt));
  core().poll_once();  // Admit the GET.
  client.transport->close();
  client.transport.reset();

  core().pump_until_idle();  // Campaign finishes; completion finds no conn.
  EXPECT_EQ(core().connection_count(), 0u);
  // The work was not wasted: the entry is published for the next client.
  EXPECT_TRUE(store_->has_summary(spec, spec.seed));
}

TEST_F(ServeCoreTest, CorruptSummaryOnDiskIsEvictedAndReExecuted) {
  const ScenarioSpec spec = tiny_spec();
  std::string pristine;
  {
    scenario::RunOptions run;
    run.store = &*store_;
    pristine = scenario::run_scenario(spec, run).summary;
  }
  {
    std::ofstream out{store_->summary_path(spec, spec.seed),
                      std::ios::binary | std::ios::trunc};
    out << "{torn";
  }

  TestClient client = connect(core());
  send(core(), client, get_request_frame(spec, std::nullopt));
  const auto response = recv(core(), client);
  ASSERT_TRUE(response && response->ok);
  // The corrupt summary is evicted and the campaign re-derives it — either
  // from scratch ("miss") or by resuming the intact journal ("partial").
  // What must never happen is the torn bytes serving as a cache hit.
  EXPECT_NE(response->hit, "hit") << "corrupt summary must not serve as a hit";
  EXPECT_EQ(response->summary, pristine);
  EXPECT_GE(metrics_.counter_value("scenario.cache.corrupt_summaries"), 1.0);
}

TEST_F(ServeCoreTest, ShutdownAnswersErrorAndDrains) {
  TestClient client = connect(core());
  core().begin_shutdown();
  send(core(), client, list_request_frame());
  const auto response = recv(core(), client, std::chrono::seconds{30});
  ASSERT_TRUE(response);
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->error_code, "shutting_down");
  EXPECT_TRUE(core().drained());
}

TEST(ServeSingleFlight, LeaderFirstCallbacksInJoinOrder) {
  SingleFlight flights;
  std::vector<std::pair<int, bool>> calls;
  EXPECT_TRUE(flights.join("k", [&](const FlightOutcome&, bool leader) {
    calls.emplace_back(0, leader);
  }));
  EXPECT_FALSE(flights.join("k", [&](const FlightOutcome&, bool leader) {
    calls.emplace_back(1, leader);
  }));
  EXPECT_FALSE(flights.join("k", [&](const FlightOutcome&, bool leader) {
    calls.emplace_back(2, leader);
  }));
  EXPECT_EQ(flights.open_flights(), 1u);

  FlightOutcome outcome;
  outcome.ok = true;
  flights.complete("k", outcome);
  ASSERT_EQ(calls.size(), 3u);
  EXPECT_EQ(calls[0], (std::pair<int, bool>{0, true}));
  EXPECT_EQ(calls[1], (std::pair<int, bool>{1, false}));
  EXPECT_EQ(calls[2], (std::pair<int, bool>{2, false}));
  EXPECT_EQ(flights.open_flights(), 0u);
}

TEST(ServeSingleFlight, DistinctKeysAreIndependentFlights) {
  SingleFlight flights;
  EXPECT_TRUE(flights.join("a", [](const FlightOutcome&, bool) {}));
  EXPECT_TRUE(flights.join("b", [](const FlightOutcome&, bool) {}));
  EXPECT_EQ(flights.open_flights(), 2u);
  flights.complete("a", {});
  EXPECT_EQ(flights.open_flights(), 1u);
}

TEST(ServeSingleFlight, CompleteWithoutJoinIsANoOp) {
  SingleFlight flights;
  flights.complete("ghost", {});
  EXPECT_EQ(flights.open_flights(), 0u);
}

}  // namespace
}  // namespace cloudrepro::serve
