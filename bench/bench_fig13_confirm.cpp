// Figure 13: CONFIRM analysis for K-Means on Google Cloud and TPC-DS Q65 on
// HPCCloud — median estimates, 95% non-parametric CIs, and 1% error bounds
// as repetitions accumulate.
// Paper: it can take 70 repetitions or more to achieve 95% CIs within 1% of
// the measured median — far beyond the 3-10 repetitions common in the
// literature (Figure 1b).
//
// The grid (workload/cloud pairs, repetition count, machine noise, cluster
// shape, error bound) is the catalog scenario `fig13-confirm`: this bench
// renders the registry spec, so `cloudrepro run fig13-confirm` executes the
// same experiment. The seed schedule stays the bench's own sequential draw
// (one master RNG across both sections) — the registry seed equals the
// fixed bench seed, so the printed numbers are unchanged.

#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bigdata/cluster.h"
#include "bigdata/engine.h"
#include "bigdata/workload.h"
#include "cloud/instances.h"
#include "core/confirm.h"
#include "core/report.h"
#include "runtime/thread_pool.h"
#include "scenario/registry.h"
#include "scenario/runner.h"

using namespace cloudrepro;

namespace {

/// The incarnation-profile cloud of one Figure 13 cell. The uniform
/// token-bucket model never appears here: Figure 13 runs *on the clouds*.
cloud::CloudProfile profile_for(scenario::CloudModel model) {
  switch (model) {
    case scenario::CloudModel::kEc2:
      return cloud::ec2_c5_xlarge();
    case scenario::CloudModel::kGce:
      return cloud::gce_8core();
    case scenario::CloudModel::kHpcCloud:
      return cloud::hpccloud_8core();
    case scenario::CloudModel::kUniformTokenBucket:
      break;
  }
  throw std::logic_error{"fig13 cells run on cloud-profile models"};
}

void confirm_for(const char* title, const scenario::ScenarioSpec& spec,
                 const scenario::WorkloadRef& ref, stats::Rng& rng) {
  bench::section(title);

  const bigdata::WorkloadProfile& workload = scenario::resolve_workload(ref);
  const cloud::CloudProfile profile =
      profile_for(ref.cloud.value_or(spec.cluster.model));
  const std::string bound_pct =
      core::fmt(spec.confirm.error_bound * 100.0, 0) + "%";

  // Runs *directly on the cloud*: network variability is entangled with
  // CPU/memory/I-O variability (Section 4.1), modelled as per-node machine
  // noise on top of the network simulation.
  //
  // The repetitions fan out across every core: each repetition gets its
  // own pre-drawn seed, engine, and cluster, and writes into its slot, so
  // the series is identical at any thread count (including serial).
  const int reps = spec.repetitions;
  std::vector<std::uint64_t> seeds(reps);
  for (auto& s : seeds) s = rng.next_u64();
  std::vector<double> runtimes(reps);
  runtime::parallel_for_each(0, reps, [&](std::size_t rep) {
    stats::Rng rep_rng{seeds[rep]};
    bigdata::EngineOptions opt_engine;
    opt_engine.machine_noise_cv = spec.engine.machine_noise_cv;
    bigdata::SparkEngine engine{opt_engine};
    auto cluster = bigdata::Cluster::from_cloud(
        spec.cluster.nodes, spec.cluster.cores_per_node, profile, rep_rng);
    runtimes[rep] = engine.run(workload, cluster, rep_rng).runtime_s;
  });

  core::ConfirmOptions opt;
  opt.quantile = spec.confirm.quantile;
  opt.confidence = spec.confirm.confidence;
  opt.error_bound = spec.confirm.error_bound;  // The paper's 1% bound.
  const auto analysis = core::confirm_analysis(runtimes, opt);

  core::TablePrinter t{
      {"Repetitions", "Median [s]", "95% CI", "Within " + bound_pct + "?"}};
  for (const std::size_t n :
       {5u, 10u, 20u, 30u, 40u, 50u, 60u, 70u, 80u, 90u, 100u}) {
    if (n > analysis.points.size()) break;
    const auto& p = analysis.points[n - 1];
    stats::ConfidenceInterval ci;
    ci.estimate = p.estimate;
    ci.lower = p.ci_lower;
    ci.upper = p.ci_upper;
    ci.valid = p.ci_valid;
    t.add_row({std::to_string(n), core::fmt(p.estimate, 1), core::fmt_ci(ci, 1),
               p.within_bound ? "yes" : "no"});
  }
  t.print(std::cout);

  if (analysis.repetitions_needed.has_value()) {
    std::cout << "Repetitions needed for a 95% CI within " << bound_pct
              << " of the median: " << *analysis.repetitions_needed << '\n';
  } else {
    std::cout << "The " << bound_pct << " bound was NOT reached within " << reps
              << " repetitions.\n";
  }

  // CONFIRM's *prediction* from a 20-run pilot: what an experimenter
  // budgeting the campaign would have forecast.
  const auto prediction = core::predict_repetitions(
      std::span<const double>{runtimes}.subspan(0, 20), opt);
  if (prediction.reliable) {
    std::cout << "Predicted from a 20-run pilot: ~" << prediction.predicted_repetitions
              << " repetitions required.\n";
  }
  std::cout << '\n';
}

}  // namespace

int main() {
  bench::header("CONFIRM analysis: repetitions until CIs converge",
                "Figure 13 (a: K-Means on Google Cloud, b: TPC-DS Q65 on HPCCloud)");

  const auto& spec = scenario::ScenarioRegistry::builtin().at("fig13-confirm");
  stats::Rng rng{spec.seed};  // == bench::kBenchSeed by registry construction.
  confirm_for("(a) HiBench K-Means on Google Cloud", spec, spec.workloads.at(0),
              rng);
  confirm_for("(b) TPC-DS Q65 on HPCCloud", spec, spec.workloads.at(1), rng);

  std::cout << "Most published studies sit at the extreme left of this table\n"
               "(3-10 repetitions), where the CIs are wide or do not exist.\n";
  return 0;
}
