// Figure 19: median estimates, 95% non-parametric CIs, and 10% error bounds
// for TPC-DS queries across a descending token-budget schedule
// {5000, 2500, 1000, 100, 10} Gbit x 10 repetitions each (cumulative 50
// measurements), emulating the effect of previous experiments on subsequent
// ones. Bottom: the share of queries whose median estimates go bad.
// Paper: Q82 is budget-agnostic (CI tightens); Q65 slows as the budget
// depletes and its CI *widens* — more repetitions make the estimate worse;
// ~80% of queries behave like Q65.

#include <iostream>
#include <vector>

#include "bench_common.h"
#include "bigdata/cluster.h"
#include "bigdata/engine.h"
#include "bigdata/workload.h"
#include "cloud/instances.h"
#include "core/confirm.h"
#include "core/report.h"
#include "obs/trace.h"
#include "simnet/qos.h"
#include "stats/descriptive.h"

using namespace cloudrepro;

namespace {

const double kBudgetSchedule[] = {5000.0, 2500.0, 1000.0, 100.0, 10.0};

std::vector<double> run_schedule(const bigdata::WorkloadProfile& query,
                                 stats::Rng& rng) {
  const auto bucket = *cloud::ec2_c5_xlarge().nominal_bucket();
  const simnet::TokenBucketQos proto{bucket};
  bigdata::EngineOptions opt;
  opt.partition_skew = 0.5;
  bigdata::SparkEngine engine{opt};

  std::vector<double> runtimes;
  for (const double budget : kBudgetSchedule) {
    for (int rep = 0; rep < 10; ++rep) {
      // Fresh machines and flushed caches per repetition; only the budget
      // carries the "previous experiments" effect, exactly as in the paper.
      auto cluster = bigdata::Cluster::uniform(12, 16, proto, 10.0);
      cluster.set_token_budgets(budget);
      runtimes.push_back(engine.run(query, cluster, rng).runtime_s);
    }
  }
  return runtimes;
}

void detail(const char* name, const std::vector<double>& runtimes) {
  cloudrepro::bench::section(name);
  core::ConfirmOptions opt;
  opt.error_bound = 0.10;  // The paper's 10% bound for this figure.
  const auto analysis = core::confirm_analysis(runtimes, opt);

  core::TablePrinter t{{"Cumulative runs", "Budget phase", "Median [s]", "95% CI",
                        "CI width"}};
  for (std::size_t n : {10u, 20u, 30u, 40u, 50u}) {
    const auto& p = analysis.points[n - 1];
    stats::ConfidenceInterval ci;
    ci.estimate = p.estimate;
    ci.lower = p.ci_lower;
    ci.upper = p.ci_upper;
    ci.valid = p.ci_valid;
    t.add_row({std::to_string(n),
               core::fmt(kBudgetSchedule[n / 10 - 1], 0) + " Gbit",
               core::fmt(p.estimate, 1), core::fmt_ci(ci, 1),
               core::fmt(p.ci_upper - p.ci_lower, 1)});
  }
  t.print(std::cout);
  std::cout << "CI widened with more repetitions: "
            << (analysis.ci_widened ? "YES (non-i.i.d. — the Figure 19 signature)"
                                    : "no (i.i.d.-compatible)")
            << "\n\n";
}

/// The same depletion story, but read off the simulator's event trace
/// instead of engine-level results: every token-bucket high->low transition
/// is a `bucket_depleted` instant stamped with simulated time, so the
/// depletion timeline of each budget phase falls out of the trace directly.
void traced_depletion_timeline() {
  cloudrepro::bench::section(
      "Trace-derived depletion timeline (TPC-DS Q65, from bucket_depleted events)");
  const auto bucket = *cloud::ec2_c5_xlarge().nominal_bucket();
  const simnet::TokenBucketQos proto{bucket};
  const auto query = bigdata::tpcds_query(65);
  // Separate stream: this section must not perturb the figures above.
  stats::Rng rng{cloudrepro::bench::kBenchSeed ^ 0xf19ULL};

  core::TablePrinter t{{"Budget phase", "Runs depleting", "First depletion [s]",
                        "Depletions/run"}};
  for (const double budget : kBudgetSchedule) {
    obs::Tracer tracer;
    bigdata::EngineOptions opt;
    opt.partition_skew = 0.5;
    opt.tracer = &tracer;
    bigdata::SparkEngine engine{opt};

    std::vector<double> first_depletion;
    std::size_t total_depletions = 0;
    for (int rep = 0; rep < 10; ++rep) {
      tracer.clear();
      auto cluster = bigdata::Cluster::uniform(12, 16, proto, 10.0);
      cluster.set_token_budgets(budget);
      engine.run(query, cluster, rng);
      const auto depletions = tracer.events_named("bucket_depleted");
      total_depletions += depletions.size();
      if (!depletions.empty()) first_depletion.push_back(depletions.front().ts_s);
    }
    t.add_row({core::fmt(budget, 0) + " Gbit",
               std::to_string(first_depletion.size()) + "/10",
               first_depletion.empty() ? std::string{"-"}
                                       : core::fmt(stats::median(first_depletion), 1),
               core::fmt(static_cast<double>(total_depletions) / 10.0, 1)});
  }
  t.print(std::cout);
  std::cout << "Small budgets deplete within seconds of the first shuffle; the\n"
               "5000 Gbit phase never transitions. The timeline above is computed\n"
               "from trace events alone — the observability layer sees the same\n"
               "hidden state the runtime statistics only show indirectly.\n\n";
}

}  // namespace

int main() {
  cloudrepro::bench::header(
      "Median estimates under a depleting token-budget schedule", "Figure 19");

  stats::Rng rng{cloudrepro::bench::kBenchSeed};

  detail("TPC-DS Query 82 (budget-agnostic)", run_schedule(bigdata::tpcds_query(82), rng));
  detail("TPC-DS Query 65 (budget-dependent)", run_schedule(bigdata::tpcds_query(65), rng));

  traced_depletion_timeline();

  cloudrepro::bench::section("All 21 queries: how many produce poor median estimates?");
  int poor = 0;
  core::TablePrinter t{{"Query", "median(first 10) [s]", "median(all 50) [s]",
                        "shift", "CI widened?"}};
  for (const auto& query : bigdata::tpcds_suite()) {
    const auto runtimes = run_schedule(query, rng);
    const double early =
        stats::median(std::span<const double>{runtimes}.subspan(0, 10));
    const double all = stats::median(runtimes);
    const double shift = std::abs(all - early) / early;
    const auto analysis = core::confirm_analysis(runtimes);
    const bool bad = shift > 0.10 || analysis.ci_widened;
    poor += bad ? 1 : 0;
    t.add_row({query.name, core::fmt(early, 1), core::fmt(all, 1),
               core::fmt_pct(shift), analysis.ci_widened ? "yes" : "no"});
  }
  t.print(std::cout);
  std::cout << '\n' << poor << "/21 queries ("
            << core::fmt(100.0 * poor / 21.0, 0)
            << "%) produce poor median estimates once the budget depletes\n"
               "(paper: ~80%). More repetitions do NOT imply better estimates\n"
               "when hidden state couples the runs — reset to known conditions.\n";
  return 0;
}
