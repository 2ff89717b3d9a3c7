// End-to-end checks that the observability layer tells the truth: traced
// events and metric counters must reconcile exactly with the results the
// instrumented layers report, and instrumentation must never change what a
// run computes.

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "bigdata/cluster.h"
#include "bigdata/engine.h"
#include "bigdata/workload.h"
#include "cloud/instances.h"
#include "core/campaign.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "json_lint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simnet/fluid_network.h"
#include "simnet/qos.h"

namespace cloudrepro {
namespace {

bigdata::Cluster twelve_nodes(double budget) {
  simnet::TokenBucketQos proto{*cloud::ec2_c5_xlarge().nominal_bucket()};
  auto cluster = bigdata::Cluster::uniform(12, 16, proto, 10.0);
  cluster.set_token_budgets(budget);
  return cluster;
}

bigdata::WorkloadProfile shuffle_heavy() {
  bigdata::WorkloadProfile w;
  w.name = "XFER";
  w.suite = "test";
  w.stages.push_back(bigdata::StageProfile{"xfer", 16, 2.0, 0.1, 40.0});
  return w;
}

TEST(ObsIntegration, EngineCountersReconcileWithRecoveryStats) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  bigdata::EngineOptions opt;
  opt.fault_plan.crash(1.0, 3);
  opt.fault_plan.crash(4.0, 7);
  opt.tracer = &tracer;
  opt.metrics = &metrics;
  bigdata::SparkEngine engine{opt};
  stats::Rng rng{101};
  auto cluster = twelve_nodes(5000.0);
  const auto r = engine.run(shuffle_heavy(), cluster, rng);
  ASSERT_EQ(r.recovery.nodes_lost, 2);
  ASSERT_GE(r.recovery.task_retries, 1);

  EXPECT_DOUBLE_EQ(metrics.counter_value("engine.task_retries"),
                   static_cast<double>(r.recovery.task_retries));
  EXPECT_DOUBLE_EQ(metrics.counter_value("engine.nodes_lost"),
                   static_cast<double>(r.recovery.nodes_lost));
  EXPECT_DOUBLE_EQ(metrics.counter_value("engine.speculative_launches"),
                   static_cast<double>(r.recovery.speculative_launches));
  EXPECT_DOUBLE_EQ(metrics.counter_value("engine.jobs"), 1.0);
  // Traced events, counted one way; RecoveryStats, counted another. They
  // must agree event-for-event.
  EXPECT_EQ(tracer.events_named("task_retry").size(),
            static_cast<std::size_t>(r.recovery.task_retries));
  EXPECT_EQ(tracer.events_named("node_crash").size(),
            static_cast<std::size_t>(r.recovery.nodes_lost));
  // The fault injector traced both planned crashes at their scheduled times.
  const auto injected = tracer.events_named(faults::to_string(faults::FaultKind::kNodeCrash));
  EXPECT_GE(injected.size(), 2u);
  // One stage -> one stage span, one job span covering the full runtime.
  ASSERT_EQ(tracer.events_named("stage").size(), 1u);
  const auto jobs = tracer.events_named("job");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(jobs[0].dur_s, r.runtime_s);
}

TEST(ObsIntegration, SpeculationEventsReconcile) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  bigdata::EngineOptions opt;
  opt.partition_skew = 1.2;
  opt.speculation.enabled = true;
  opt.speculation.check_interval_s = 10.0;
  opt.speculation.slowdown_threshold = 2.0;
  opt.fault_plan.slow_down(1.0, 2, 500.0, 0.05);
  opt.tracer = &tracer;
  opt.metrics = &metrics;
  bigdata::SparkEngine engine{opt};
  stats::Rng rng{55};
  auto cluster = twelve_nodes(5000.0);
  const auto r = engine.run(shuffle_heavy(), cluster, rng);

  EXPECT_EQ(tracer.events_named("speculation").size(),
            static_cast<std::size_t>(r.recovery.speculative_launches));
  EXPECT_DOUBLE_EQ(metrics.counter_value("engine.speculative_launches"),
                   static_cast<double>(r.recovery.speculative_launches));
}

TEST(ObsIntegration, TokenBucketTransitionsAreTraced) {
  simnet::FluidNetwork net;
  simnet::TokenBucketConfig cfg;
  cfg.capacity_gbit = 100.0;
  cfg.initial_gbit = 20.0;  // Depletes after ~2.2s at 10 Gbps minus refill.
  cfg.high_rate_gbps = 10.0;
  cfg.low_rate_gbps = 1.0;
  cfg.replenish_gbps = 1.0;
  cfg.recover_threshold_gbit = 5.0;
  net.add_node(std::make_unique<simnet::TokenBucketQos>(cfg));
  net.add_node(std::make_unique<simnet::FixedRateQos>(10.0));

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  net.set_observability(&tracer, &metrics);

  net.start_flow(0, 1, 50.0);
  ASSERT_TRUE(net.run_until_flows_complete(1000.0));

  const auto depleted = tracer.events_named("bucket_depleted");
  ASSERT_EQ(depleted.size(), 1u);
  // 20 Gbit of budget drained at (10 - 1) Gbit/s net -> depletion at ~2.22s.
  EXPECT_NEAR(depleted[0].ts_s, 20.0 / 9.0, 1e-6);
  EXPECT_EQ(depleted[0].lane, 0u);
  EXPECT_STREQ(depleted[0].arg0.key, "node");
  EXPECT_DOUBLE_EQ(depleted[0].arg0.value, 0.0);
  EXPECT_DOUBLE_EQ(metrics.counter_value("simnet.flows_started"), 1.0);
  EXPECT_DOUBLE_EQ(metrics.counter_value("simnet.flows_completed"), 1.0);
  EXPECT_GT(metrics.counter_value("simnet.steps"), 0.0);
  EXPECT_GT(metrics.counter_value("simnet.allocations"), 0.0);
  EXPECT_EQ(tracer.events_named("flow_start").size(), 1u);
  EXPECT_EQ(tracer.events_named("flow_end").size(), 1u);
}

TEST(ObsIntegration, InstrumentationDoesNotChangeEngineResults) {
  const auto run = [](bool instrumented) {
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    bigdata::EngineOptions opt;
    opt.fault_plan.crash(1.0, 3);
    if (instrumented) {
      opt.tracer = &tracer;
      opt.metrics = &metrics;
    }
    bigdata::SparkEngine engine{opt};
    stats::Rng rng{202};
    auto cluster = twelve_nodes(5000.0);
    return engine.run(shuffle_heavy(), cluster, rng).runtime_s;
  };
  EXPECT_DOUBLE_EQ(run(false), run(true));
}

TEST(ObsIntegration, InjectorTracesEveryPoppedEvent) {
  faults::FaultPlan plan;
  plan.crash(1.0, 0);
  plan.slow_down(2.0, 1, 5.0, 0.5);
  plan.steal_tokens(3.0, 2, 100.0);
  faults::FaultInjector injector{plan};
  obs::Tracer tracer;
  injector.set_tracer(&tracer);
  std::size_t popped = 0;
  while (!injector.empty()) {
    injector.pop();
    ++popped;
  }
  EXPECT_EQ(popped, 3u);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 3u);
  // Instants land at the events' scheduled times, in pop (time) order.
  EXPECT_DOUBLE_EQ(events[0].ts_s, 1.0);
  EXPECT_DOUBLE_EQ(events[1].ts_s, 2.0);
  EXPECT_DOUBLE_EQ(events[2].ts_s, 3.0);
  for (const auto& e : events) EXPECT_STREQ(e.category, "faults");
}

TEST(ObsIntegration, CampaignSinksExportValidTraceAndMetricsJson) {
  std::vector<core::CampaignCell> cells;
  for (int c = 0; c < 3; ++c) {
    cells.push_back(core::CampaignCell{
        "cfg" + std::to_string(c), "t",
        [](stats::Rng& rng) { return rng.normal(10.0, 1.0); }, [] {}});
  }
  core::CampaignOptions opt;
  opt.repetitions_per_cell = 4;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  opt.tracer = &tracer;
  opt.metrics = &metrics;
  const auto result = core::run_campaign(cells, opt, 99u);
  EXPECT_TRUE(result.complete);

  std::ostringstream trace_out;
  tracer.write_chrome_json(trace_out);
  const std::string trace_json = trace_out.str();
  ASSERT_FALSE(trace_json.empty());
  EXPECT_TRUE(testing::JsonLint::valid(trace_json)) << trace_json.substr(0, 400);
  EXPECT_NE(trace_json.find("\"measurement\""), std::string::npos);

  std::ostringstream metrics_out;
  metrics.write_json(metrics_out);
  const std::string metrics_json = metrics_out.str();
  ASSERT_FALSE(metrics_json.empty());
  EXPECT_TRUE(testing::JsonLint::valid(metrics_json))
      << metrics_json.substr(0, 400);
  EXPECT_NE(metrics_json.find("campaign.measurements_executed"),
            std::string::npos);
  EXPECT_NE(metrics_json.find("campaign.cell_wall_s"), std::string::npos);
}

TEST(ObsIntegration, CampaignMetricsReconcileAcrossThreadCounts) {
  for (const int threads : {1, 0}) {
    std::vector<core::CampaignCell> cells;
    for (int c = 0; c < 4; ++c) {
      cells.push_back(core::CampaignCell{
          "cfg" + std::to_string(c), "t",
          [](stats::Rng& rng) { return rng.normal(5.0, 1.0); }, [] {}});
    }
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    core::CampaignOptions opt;
    opt.repetitions_per_cell = 5;
    opt.threads = threads;
    opt.tracer = &tracer;
    opt.metrics = &metrics;
    const auto result = core::run_campaign(cells, opt, 1234u);
    EXPECT_TRUE(result.complete);

    EXPECT_DOUBLE_EQ(metrics.counter_value("campaign.measurements_executed"),
                     20.0)
        << "threads=" << threads;
    EXPECT_EQ(tracer.events_named("measurement").size(), 20u)
        << "threads=" << threads;
    ASSERT_EQ(tracer.events_named("campaign").size(), 1u);
  }
}

TEST(ObsIntegration, ResumedCampaignCountsReplayedMeasurements) {
  const auto dir = std::filesystem::path{::testing::TempDir()};
  const auto journal = dir / "obs_resume_journal.jsonl";
  std::filesystem::remove(journal);

  const auto make_cells = [] {
    std::vector<core::CampaignCell> cells;
    for (int c = 0; c < 2; ++c) {
      cells.push_back(core::CampaignCell{
          "cfg" + std::to_string(c), "t",
          [](stats::Rng& rng) { return rng.normal(3.0, 0.5); }, [] {}});
    }
    return cells;
  };

  core::CampaignOptions first;
  first.repetitions_per_cell = 6;
  first.journal_path = journal;
  first.max_measurements = 5;  // Interrupt after 5 measurements.
  const auto partial = core::run_campaign(make_cells(), first, 77u);
  ASSERT_FALSE(partial.complete);

  obs::MetricsRegistry metrics;
  core::CampaignOptions second = first;
  second.max_measurements = 0;
  second.metrics = &metrics;
  const auto resumed = core::run_campaign(make_cells(), second, 77u);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.resumed_measurements, 5u);

  EXPECT_DOUBLE_EQ(metrics.counter_value("campaign.measurements_resumed"), 5.0);
  EXPECT_DOUBLE_EQ(metrics.counter_value("campaign.measurements_executed"), 7.0);
  std::filesystem::remove(journal);
}

}  // namespace
}  // namespace cloudrepro
