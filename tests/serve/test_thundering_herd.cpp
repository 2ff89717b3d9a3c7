// The tentpole property: N concurrent cold GETs for the same scenario cost
// exactly ONE campaign — the in-process single-flight collapse — and every
// requester gets byte-identical summaries. Plus a mixed-operation hammer
// that runs under TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/journal.h"
#include "obs/metrics.h"
#include "scenario/runner.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport.h"

namespace cloudrepro::serve {
namespace {

namespace fs = std::filesystem;
using scenario::ResultStore;
using scenario::ScenarioSpec;

constexpr int kHerd = 8;

ScenarioSpec tiny_spec(const std::string& name = "serve-herd") {
  ScenarioSpec spec;
  spec.name = name;
  spec.workloads = {{"hibench", "TS", std::nullopt}, {"hibench", "KM", std::nullopt}};
  spec.budgets = {5000.0, 10.0};
  spec.repetitions = 3;
  return spec;
}

class ServeHerdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path{::testing::TempDir()} /
            ("cloudrepro-herd-" + std::string{::testing::UnitTest::GetInstance()
                                                  ->current_test_info()
                                                  ->name()});
    fs::remove_all(root_);
    store_.emplace(root_ / "cache", &metrics_);
  }
  void TearDown() override {
    core_.reset();  // Closes transports; any straggler client unblocks.
    store_.reset();
    fs::remove_all(root_);
  }

  /// Record lines in the entry's journal, header excluded. A campaign that
  /// ran once journals each measurement once: the journal's own witness,
  /// next to the `campaign.measurements_executed` counter.
  std::size_t journal_records(const ScenarioSpec& spec, std::uint64_t seed) const {
    std::ifstream in{store_->journal_path(spec, seed)};
    std::string line;
    std::getline(in, line);
    std::size_t records = 0;
    core::JournalRecord record;
    while (std::getline(in, line)) {
      if (core::parse_journal_line(line, record)) ++records;
    }
    return records;
  }

  fs::path root_;
  obs::MetricsRegistry metrics_;
  std::optional<ResultStore> store_;
  std::optional<ServerCore> core_;
};

TEST_F(ServeHerdTest, EightConcurrentColdGetsExecuteTheCampaignExactlyOnce) {
  const ScenarioSpec spec = tiny_spec();

  // The test holds the entry lock (this process, registered: a live
  // holder), so the leader's run_scenario waits in its lock-poll loop and
  // the campaign cannot start — or finish — before every herd member has
  // joined the flight. Admission is observed through the single-flight
  // counters, then the lock is released and the leader takes it.
  scenario::EntryLock gate = store_->try_lock(spec, spec.seed);
  ASSERT_TRUE(gate);
  core_.emplace(*store_, metrics_, ServeOptions{});

  // Reactor-thread rule: all connections are made here, before the client
  // threads start driving their endpoints.
  std::vector<std::unique_ptr<MemoryTransport>> endpoints;
  for (int i = 0; i < kHerd; ++i) {
    auto [client_end, server_end] = make_memory_pair();
    ASSERT_NE(core_->add_connection(std::move(server_end)), 0u);
    endpoints.push_back(std::move(client_end));
  }

  std::atomic<int> done{0};
  std::vector<std::optional<Response>> responses(kHerd);
  std::vector<std::thread> herd;
  herd.reserve(kHerd);
  for (int i = 0; i < kHerd; ++i) {
    herd.emplace_back([&, i] {
      try {
        FetchClient client{std::move(endpoints[i])};
        responses[i] = client.get(spec);
      } catch (const std::exception&) {
        // Leave the slot empty; the main thread's asserts will name it.
      }
      done.fetch_add(1);
    });
  }

  // Pump until all eight requests have joined the flight, then let the
  // campaign run, then pump the responses out.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes{5};
  bool released = false;
  while (done.load() < kHerd &&
         std::chrono::steady_clock::now() < deadline) {
    if (!released &&
        metrics_.counter_value("serve.single_flight_leader") +
                metrics_.counter_value("serve.single_flight_coalesced") >=
            kHerd) {
      gate.release();
      released = true;
    }
    if (!core_->poll_once()) core_->wait_activity(std::chrono::milliseconds{1});
  }
  for (auto& thread : herd) thread.join();
  ASSERT_EQ(done.load(), kHerd) << "herd did not finish before the deadline";

  // Every response: ok, byte-identical to the reference run.
  ResultStore reference_store{root_ / "reference"};
  scenario::RunOptions reference;
  reference.store = &reference_store;
  const std::string expected = scenario::run_scenario(spec, reference).summary;

  int misses = 0;
  int coalesced = 0;
  for (int i = 0; i < kHerd; ++i) {
    ASSERT_TRUE(responses[i].has_value()) << "client " << i << " got no response";
    ASSERT_TRUE(responses[i]->ok) << responses[i]->error_message;
    EXPECT_EQ(responses[i]->summary, expected) << "client " << i;
    if (responses[i]->hit == "miss") ++misses;
    if (responses[i]->hit == "coalesced") ++coalesced;
  }
  EXPECT_EQ(misses, 1) << "exactly one leader executes";
  EXPECT_EQ(coalesced, kHerd - 1);

  // The exactly-once story told by the counters, reconciled end to end:
  // one flight, one cache admission, one campaign's worth of measurements.
  EXPECT_EQ(metrics_.counter_value("serve.single_flight_leader"), 1.0);
  EXPECT_EQ(metrics_.counter_value("serve.single_flight_coalesced"),
            static_cast<double>(kHerd - 1));
  EXPECT_EQ(metrics_.counter_value("serve.requests_get"),
            static_cast<double>(kHerd));
  EXPECT_EQ(metrics_.counter_value("scenario.cache.miss"), 1.0);
  EXPECT_EQ(metrics_.counter_value("scenario.cache.hit"), 0.0);
  EXPECT_EQ(metrics_.counter_value("campaign.measurements_executed"),
            static_cast<double>(spec.total_measurements()));
  EXPECT_EQ(journal_records(spec, spec.seed), spec.total_measurements());
  EXPECT_EQ(metrics_.counter_value("serve.get_executed"), 1.0);
}

TEST_F(ServeHerdTest, LateArrivalsAfterTheFlightLandOnTheCacheFastPath) {
  const ScenarioSpec spec = tiny_spec();
  core_.emplace(*store_, metrics_, ServeOptions{});

  auto [first_end, first_server] = make_memory_pair();
  ASSERT_NE(core_->add_connection(std::move(first_server)), 0u);
  auto [second_end, second_server] = make_memory_pair();
  ASSERT_NE(core_->add_connection(std::move(second_server)), 0u);

  std::atomic<int> done{0};
  std::optional<Response> first, second;
  std::thread a{[&] {
    FetchClient client{std::move(first_end)};
    first = client.get(spec);
    done.fetch_add(1);
  }};
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes{5};
  while (done.load() < 1 && std::chrono::steady_clock::now() < deadline) {
    if (!core_->poll_once()) core_->wait_activity(std::chrono::milliseconds{1});
  }
  a.join();

  std::thread b{[&] {
    FetchClient client{std::move(second_end)};
    second = client.get(spec);
    done.fetch_add(1);
  }};
  while (done.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    if (!core_->poll_once()) core_->wait_activity(std::chrono::milliseconds{1});
  }
  b.join();

  ASSERT_TRUE(first && first->ok);
  ASSERT_TRUE(second && second->ok);
  EXPECT_EQ(first->hit, "miss");
  EXPECT_EQ(second->hit, "hit");
  EXPECT_EQ(first->summary, second->summary);
  EXPECT_EQ(metrics_.counter_value("serve.get_hit"), 1.0);
  EXPECT_EQ(metrics_.counter_value("scenario.cache.miss"), 1.0);
}

// TSan target: eight client threads each driving a private connection with
// a mix of warm GETs, cold per-thread GETs (distinct seeds — concurrent
// campaigns on the executor pool), LIST and STATS, while the reactor
// thread pumps. Exercises the completion queue, the flight table, the
// metrics registry, and the pipes under real concurrency.
TEST_F(ServeHerdTest, HammerMixedOperationsUnderConcurrency) {
  const ScenarioSpec warm = tiny_spec("serve-hammer");
  {
    scenario::RunOptions run;
    run.store = &*store_;
    scenario::run_scenario(warm, run);
  }
  core_.emplace(*store_, metrics_, ServeOptions{});

  constexpr int kThreads = 8;
  std::vector<std::unique_ptr<MemoryTransport>> endpoints;
  for (int i = 0; i < kThreads; ++i) {
    auto [client_end, server_end] = make_memory_pair();
    ASSERT_NE(core_->add_connection(std::move(server_end)), 0u);
    endpoints.push_back(std::move(client_end));
  }

  std::atomic<int> done{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      try {
        FetchClient client{std::move(endpoints[i])};
        if (!client.get(warm).ok) failures.fetch_add(1);
        if (!client.list().ok) failures.fetch_add(1);
        // Distinct seed per thread: eight campaigns racing on the executor.
        if (!client.get(warm, 1000 + static_cast<std::uint64_t>(i)).ok) {
          failures.fetch_add(1);
        }
        if (!client.stats().ok) failures.fetch_add(1);
        if (!client.get(warm).ok) failures.fetch_add(1);
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
      done.fetch_add(1);
    });
  }

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes{5};
  while (done.load() < kThreads &&
         std::chrono::steady_clock::now() < deadline) {
    if (!core_->poll_once()) core_->wait_activity(std::chrono::milliseconds{1});
  }
  for (auto& thread : threads) thread.join();
  ASSERT_EQ(done.load(), kThreads);
  EXPECT_EQ(failures.load(), 0);

  // Every distinct (scenario, seed) ran exactly once: the eight cold
  // seeds executed on the server (the warm pre-run above recorded no
  // metrics), and all warm GETs were cache hits.
  EXPECT_EQ(metrics_.counter_value("serve.get_executed"),
            static_cast<double>(kThreads));
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(journal_records(warm, 1000 + static_cast<std::uint64_t>(i)),
              warm.total_measurements())
        << "seed " << 1000 + i;
  }
  EXPECT_EQ(metrics_.counter_value("campaign.measurements_executed"),
            static_cast<double>(warm.total_measurements() * kThreads));
}

}  // namespace
}  // namespace cloudrepro::serve
