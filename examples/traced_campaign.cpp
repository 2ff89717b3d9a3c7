// Example: a fully observed campaign — the observability layer end to end.
//
// A (workload x budget) grid runs fault-injected jobs while one shared
// Tracer and MetricsRegistry watch every layer at once: the campaign
// scheduler records wall-clock measurement spans, the engine records
// sim-time stage/job spans and retry/speculation instants, the fluid
// network records flow and token-bucket transitions, and the fault injector
// stamps every injected event. The run ends by exporting both sinks:
//
//   traced_campaign_trace.json    — open in chrome://tracing or
//                                   https://ui.perfetto.dev (pid 0 = wall
//                                   clock, pid 1 = simulated time)
//   traced_campaign_metrics.json  — counter/histogram snapshot
//
// and prints the reconciliation the metrics make possible: traced retry
// events agree exactly with the engine's RecoveryStats accounting.
//
// Usage: traced_campaign [output-dir]   (default: current directory)

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bigdata/cluster.h"
#include "bigdata/engine.h"
#include "bigdata/workload.h"
#include "cloud/instances.h"
#include "core/campaign.h"
#include "core/report.h"
#include "faults/fault_plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simnet/qos.h"
#include "stats/rng.h"

using namespace cloudrepro;

namespace {

/// One measurement: a fault-injected TeraSort/WordCount run on a fresh
/// cluster, with the shared observability sinks wired into the engine.
double observed_run(const bigdata::WorkloadProfile& workload, double budget,
                    obs::Tracer* tracer, obs::MetricsRegistry* metrics,
                    std::atomic<long long>* expected_retries, stats::Rng& rng) {
  const auto bucket = *cloud::ec2_c5_xlarge().nominal_bucket();
  const simnet::TokenBucketQos proto{bucket};
  auto cluster = bigdata::Cluster::uniform(12, 16, proto, 10.0);
  cluster.set_token_budgets(budget);

  faults::FaultPlanConfig faults_cfg;
  faults_cfg.horizon_s = 600.0;
  faults_cfg.crash_rate_per_hour = 6.0;
  faults_cfg.slowdown_rate_per_hour = 30.0;
  faults_cfg.theft_rate_per_hour = 30.0;

  bigdata::EngineOptions opt;
  opt.fault_plan = faults::FaultPlan::sample(faults_cfg, cluster.node_count(), rng);
  opt.speculation.enabled = true;
  opt.speculation.check_interval_s = 5.0;
  opt.tracer = tracer;
  opt.metrics = metrics;
  bigdata::SparkEngine engine{opt};
  const auto result = engine.run(workload, cluster, rng);
  expected_retries->fetch_add(result.recovery.task_retries,
                              std::memory_order_relaxed);
  return result.runtime_s;
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path dir = argc > 1 ? argv[1] : ".";
  const auto trace_path = dir / "traced_campaign_trace.json";
  const auto metrics_path = dir / "traced_campaign_metrics.json";

  obs::Tracer tracer{1 << 18};
  obs::MetricsRegistry metrics;
  std::atomic<long long> expected_retries{0};

  std::vector<core::CampaignCell> cells;
  struct Spec {
    const char* config;
    const bigdata::WorkloadProfile workload;
    double budget;
  };
  const Spec specs[] = {
      {"TS", bigdata::hibench_terasort(), 5000.0},
      {"TS", bigdata::hibench_terasort(), 100.0},
      {"WC", bigdata::hibench_wordcount(), 5000.0},
      {"WC", bigdata::hibench_wordcount(), 100.0},
  };
  for (const auto& spec : specs) {
    cells.push_back(core::CampaignCell{
        spec.config, "budget=" + core::fmt(spec.budget, 0),
        [&, workload = spec.workload, budget = spec.budget](stats::Rng& rng) {
          return observed_run(workload, budget, &tracer, &metrics,
                              &expected_retries, rng);
        },
        [] {}});
  }

  core::CampaignOptions opt;
  opt.repetitions_per_cell = 5;
  opt.tracer = &tracer;
  opt.metrics = &metrics;

  const auto result = core::run_campaign(cells, opt, /*seed=*/20200225u);
  core::print_campaign_summary(std::cout, result);

  std::ofstream trace_out{trace_path};
  tracer.write_chrome_json(trace_out);
  std::ofstream metrics_out{metrics_path};
  metrics.write_json(metrics_out);
  trace_out.close();
  metrics_out.close();
  if (!trace_out || !metrics_out) {
    std::cerr << "traced_campaign: cannot write " << trace_path.string() << " or "
              << metrics_path.string() << '\n';
    return 1;
  }

  std::cout << "\n--- Telemetry reconciliation ---\n"
            << "engine.task_retries (metrics counter): "
            << metrics.counter_value("engine.task_retries") << '\n'
            << "task_retry events in trace window:     "
            << tracer.events_named("task_retry").size() << '\n'
            << "RecoveryStats retries (ground truth):  "
            << expected_retries.load() << '\n'
            << "engine.jobs: " << metrics.counter_value("engine.jobs")
            << "  campaign.measurements_executed: "
            << metrics.counter_value("campaign.measurements_executed") << '\n'
            << "trace events emitted=" << tracer.emitted()
            << " retained=" << tracer.size() << " dropped=" << tracer.dropped()
            << "\n\nWrote " << trace_path.string() << " ("
            << std::filesystem::file_size(trace_path) << " bytes) — load it in "
            << "chrome://tracing or https://ui.perfetto.dev\n"
            << "Wrote " << metrics_path.string() << '\n';
  return 0;
}
