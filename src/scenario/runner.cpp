#include "scenario/runner.h"

#include <chrono>
#include <exception>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bigdata/cluster.h"
#include "bigdata/engine.h"
#include "bigdata/workload.h"
#include "cloud/instances.h"
#include "core/confirm.h"
#include "core/journal.h"
#include "faults/fault_plan.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "simnet/qos.h"

namespace cloudrepro::scenario {

namespace {

std::span<const bigdata::WorkloadProfile> suite_profiles(const std::string& suite) {
  if (suite == "hibench") return bigdata::hibench_suite();
  if (suite == "hibench-ext") return bigdata::hibench_extended_suite();
  if (suite == "tpcds") return bigdata::tpcds_suite();
  if (suite == "tpch") return bigdata::tpch_suite();
  throw std::out_of_range{"unknown workload suite \"" + suite + "\""};
}

faults::FaultPlanConfig fault_config(const FaultSpec& spec) {
  faults::FaultPlanConfig config;
  config.horizon_s = spec.horizon_s;
  config.crash_rate_per_hour = spec.crash_rate_per_hour;
  config.revocation_rate_per_hour = spec.revocation_rate_per_hour;
  config.slowdown_rate_per_hour = spec.slowdown_rate_per_hour;
  config.flap_rate_per_hour = spec.flap_rate_per_hour;
  config.theft_rate_per_hour = spec.theft_rate_per_hour;
  return config;
}

/// Builds this cell's cluster. Uniform-token-bucket clusters are
/// deterministic clones of the EC2 nominal bucket (the Figures 15-19
/// emulation); the cloud models draw per-VM incarnations from the
/// repetition's RNG stream, consuming draws *before* the engine runs —
/// the same order the Figure 13 bench established.
bigdata::Cluster make_cluster(CloudModel model, const ClusterSpec& spec,
                              stats::Rng& rng) {
  switch (model) {
    case CloudModel::kUniformTokenBucket: {
      const auto bucket = *cloud::ec2_c5_xlarge().nominal_bucket();
      const simnet::TokenBucketQos proto{bucket};
      return bigdata::Cluster::uniform(spec.nodes, spec.cores_per_node, proto,
                                       spec.line_rate_gbps);
    }
    case CloudModel::kEc2:
      return bigdata::Cluster::from_cloud(spec.nodes, spec.cores_per_node,
                                          cloud::ec2_c5_xlarge(), rng);
    case CloudModel::kGce:
      return bigdata::Cluster::from_cloud(spec.nodes, spec.cores_per_node,
                                          cloud::gce_8core(), rng);
    case CloudModel::kHpcCloud:
      return bigdata::Cluster::from_cloud(spec.nodes, spec.cores_per_node,
                                          cloud::hpccloud_8core(), rng);
  }
  throw std::logic_error{"make_cluster: unreachable"};
}

Json confirm_to_json(const core::ConfirmAnalysis& analysis) {
  JsonObject out;
  out["repetitions_needed"] = analysis.repetitions_needed
                                  ? Json{static_cast<std::uint64_t>(
                                        *analysis.repetitions_needed)}
                                  : Json{nullptr};
  out["ci_widened"] = Json{analysis.ci_widened};
  const auto& final_point = analysis.final_point();
  out["final_estimate"] = Json{final_point.estimate};
  out["final_ci_lower"] = Json{final_point.ci_lower};
  out["final_ci_upper"] = Json{final_point.ci_upper};
  out["final_ci_valid"] = Json{final_point.ci_valid};
  out["final_within_bound"] = Json{final_point.within_bound};
  return Json{std::move(out)};
}

}  // namespace

const bigdata::WorkloadProfile& resolve_workload(const WorkloadRef& ref) {
  const auto profiles = suite_profiles(ref.suite);
  for (const auto& profile : profiles) {
    if (profile.name == ref.name) return profile;
  }
  std::string known;
  for (const auto& profile : profiles) {
    if (!known.empty()) known += ", ";
    known += profile.name;
  }
  throw std::out_of_range{"unknown workload \"" + ref.name + "\" in suite \"" +
                          ref.suite + "\" (known: " + known + ")"};
}

std::vector<core::CampaignCell> build_cells(const ScenarioSpec& spec) {
  spec.validate();
  std::vector<core::CampaignCell> cells;
  cells.reserve(spec.cell_count());
  for (const auto& ref : spec.workloads) {
    const bigdata::WorkloadProfile& profile = resolve_workload(ref);
    const CloudModel model = ref.cloud.value_or(spec.cluster.model);
    for (std::size_t t = 0; t < spec.treatment_count(); ++t) {
      const double budget = spec.budgets.empty() ? -1.0 : spec.budgets[t];
      // Captures are by value (small structs + a pointer to the profile's
      // static storage): cells outlive the spec they were built from and
      // run concurrently under the campaign thread pool.
      const ClusterSpec cluster_spec = spec.cluster;
      const EngineSpec engine_spec = spec.engine;
      const FaultSpec fault_spec = spec.faults;
      cells.push_back(core::CampaignCell{
          profile.name, spec.treatment_label(t),
          [&profile, model, cluster_spec, engine_spec, fault_spec,
           budget](stats::Rng& rng) {
            auto cluster = make_cluster(model, cluster_spec, rng);
            if (budget >= 0.0) cluster.set_token_budgets(budget);
            bigdata::EngineOptions options;
            options.partition_skew = engine_spec.partition_skew;
            options.stable_partitioning = engine_spec.stable_partitioning;
            options.machine_noise_cv = engine_spec.machine_noise_cv;
            options.speculation.enabled = engine_spec.speculation;
            if (fault_spec.enabled) {
              options.fault_plan = faults::FaultPlan::sample(
                  fault_config(fault_spec), cluster.node_count(), rng);
            }
            bigdata::SparkEngine engine{options};
            return engine.run(profile, cluster, rng).runtime_s;
          },
          [] {}});
    }
  }
  return cells;
}

core::CampaignOptions campaign_options(const ScenarioSpec& spec) {
  core::CampaignOptions options;
  options.repetitions_per_cell = spec.repetitions;
  options.randomize_order = spec.randomize_order;
  options.confidence = spec.confidence;
  if (spec.confirm.enabled && spec.confirm.adaptive) {
    options.adaptive.enabled = true;
    options.adaptive.quantile = spec.confirm.quantile;
    options.adaptive.confidence = spec.confirm.confidence;
    options.adaptive.error_bound = spec.confirm.error_bound;
    options.adaptive.min_repetitions =
        static_cast<std::size_t>(spec.confirm.min_repetitions);
  }
  return options;
}

std::string summary_json(const ScenarioSpec& spec, std::uint64_t seed,
                         const core::CampaignResult& result) {
  JsonArray cells_json;
  for (const auto& cell : result.cells) {
    JsonObject c;
    c["config"] = Json{cell.config};
    c["treatment"] = Json{cell.treatment};
    c["n"] = Json{cell.values.size()};
    if (!cell.values.empty()) {
      c["mean"] = Json{cell.summary.mean};
      c["median"] = Json{cell.summary.median};
      c["stddev"] = Json{cell.summary.stddev};
      c["cov"] = Json{cell.summary.coefficient_of_variation};
      c["min"] = Json{cell.summary.min};
      c["max"] = Json{cell.summary.max};
      c["median_ci_lower"] = Json{cell.median_ci.lower};
      c["median_ci_upper"] = Json{cell.median_ci.upper};
      c["median_ci_valid"] = Json{cell.median_ci.valid};
      if (spec.confirm.enabled) {
        core::ConfirmOptions confirm_options;
        confirm_options.quantile = spec.confirm.quantile;
        confirm_options.confidence = spec.confirm.confidence;
        confirm_options.error_bound = spec.confirm.error_bound;
        Json confirm_json = confirm_to_json(
            core::confirm_analysis(cell.values, confirm_options));
        if (spec.confirm.adaptive) {
          // Everything here is a pure function of (spec, values): the stop
          // outcome re-derives from the value sequence, so the summary stays
          // byte-identical across thread counts and cache state.
          confirm_json["adaptive"] = Json{true};
          confirm_json["converged"] = Json{cell.adaptive_converged};
          confirm_json["stop_repetitions"] =
              Json{static_cast<std::uint64_t>(cell.stop_repetitions)};
          confirm_json["achieved_coverage"] =
              Json{cell.confirm_ci.valid ? cell.confirm_ci.confidence : 0.0};
        }
        c["confirm"] = std::move(confirm_json);
      }
    }
    cells_json.push_back(Json{std::move(c)});
  }

  JsonObject root;
  root["scenario"] = Json{spec.name};
  root["scenario_hash"] = Json{spec.content_hash()};
  root["seed"] = Json{seed};
  root["result_schema_version"] = Json{static_cast<std::int64_t>(kResultSchemaVersion)};
  root["repetitions_per_cell"] = Json{static_cast<std::int64_t>(spec.repetitions)};
  root["complete"] = Json{result.complete};
  root["cells"] = Json{std::move(cells_json)};
  return Json{std::move(root)}.canonical();
}

namespace {

/// Serves the store's published summary, validating it first. Returns false
/// when the summary is absent or corrupt (the checked read evicts a corrupt
/// one so the caller re-runs).
bool serve_summary(ResultStore& store, const ScenarioSpec& spec,
                   std::uint64_t seed, ScenarioRunResult& result) {
  auto summary = store.read_summary_checked(spec, seed);
  if (!summary) return false;
  result.summary = std::move(*summary);
  result.from_cached_summary = true;
  result.resumed_measurements = result.total_measurements;
  result.complete = true;
  return true;
}

}  // namespace

ScenarioRunResult run_scenario(const ScenarioSpec& spec, const RunOptions& options) {
  spec.validate();
  const std::uint64_t seed = options.seed.value_or(spec.seed);

  ScenarioRunResult result;
  result.total_measurements = spec.total_measurements();

  EntryLock lock;
  if (options.store) {
    const auto lookup = options.store->lookup(spec, seed);
    result.hit_state = lookup.state;
    if (lookup.state == ResultStore::HitState::kHit && !options.need_values &&
        serve_summary(*options.store, spec, seed, result)) {
      // Full hit: serve the stored summary verbatim; nothing executes, so
      // no lock is needed — publication was atomic.
      return result;
    }

    // Single-flight admission: only the lock holder executes. A losing
    // process polls for either the holder's published summary (read
    // through, execute nothing) or the lock itself (holder crashed or
    // finished without publishing — e.g. interrupted; we resume its
    // journal).
    lock = options.store->try_lock(spec, seed);
    for (int attempt = 0; !lock; ++attempt) {
      if (attempt >= options.lock_wait_attempts) {
        throw std::runtime_error{
            "timed out waiting for the result-store lock on " +
            options.store->entry_key(spec, seed) +
            " (another process is executing this scenario)"};
      }
      options.store->note_lock_wait();
      std::this_thread::sleep_for(std::chrono::milliseconds(options.lock_wait_ms));
      if (!options.need_values && options.store->has_summary(spec, seed) &&
          serve_summary(*options.store, spec, seed, result)) {
        options.store->note_read_through();
        result.hit_state = ResultStore::HitState::kHit;
        return result;
      }
      lock = options.store->try_lock(spec, seed);
    }
    // Holder may have completed between our lookup and the lock handover.
    if (!options.need_values &&
        serve_summary(*options.store, spec, seed, result)) {
      result.hit_state = ResultStore::HitState::kHit;
      return result;
    }
  }

  auto campaign_opts = campaign_options(spec);
  campaign_opts.threads = options.threads;
  campaign_opts.pool = options.pool;
  campaign_opts.max_measurements = options.max_measurements;
  campaign_opts.cancel = options.cancel;
  campaign_opts.vfs = options.vfs;
  campaign_opts.metrics = options.metrics;
  if (options.store) {
    campaign_opts.journal_path = options.store->prepare(spec, seed);
  }

  auto cells = build_cells(spec);
  core::CampaignResult campaign;
  try {
    campaign = core::run_campaign(std::move(cells), campaign_opts, seed);
  } catch (const core::JournalMismatch&) {
    // A journal written by an older build (different header) or with
    // out-of-range records. Content addressing makes the journal worthless,
    // not the run: discard it and redo the campaign cold, still holding the
    // entry lock. The type is specific so real I/O failures (ENOSPC, EIO)
    // can never trigger a discard-and-retry that would silently throw away
    // completed work.
    if (!options.store) throw;
    options.store->discard_journal(spec, seed);
    campaign = core::run_campaign(build_cells(spec), campaign_opts, seed);
  }

  std::size_t measured = 0;
  for (const auto& cell : campaign.cells) measured += cell.values.size();
  result.resumed_measurements = campaign.resumed_measurements;
  result.executed_measurements = measured - campaign.resumed_measurements;
  result.complete = campaign.complete;

  if (options.metrics && campaign_opts.adaptive.enabled) {
    for (const auto& cell : campaign.cells) {
      if (cell.adaptive_converged) {
        options.metrics->counter("scenario.confirm.converged").add();
        options.metrics->histogram("scenario.confirm.stop_repetitions")
            .observe(static_cast<double>(cell.stop_repetitions));
      } else {
        options.metrics->counter("scenario.confirm.unconverged").add();
      }
      if (cell.confirm_ci.valid) {
        options.metrics->histogram("scenario.confirm.achieved_coverage")
            .observe(cell.confirm_ci.confidence);
      }
    }
  }

  result.summary = summary_json(spec, seed, campaign);
  if (options.store && campaign.complete) {
    options.store->write_summary(spec, seed, result.summary);
    // Enforce the byte budget now that the entry is complete, shielding it
    // from its own eviction (it is by construction the most recent entry,
    // but the budget may be smaller than this single entry).
    options.store->enforce_budget(options.store->entry_key(spec, seed));
  }
  result.campaign = std::move(campaign);
  return result;
}

SuiteRunResult run_suite(const std::vector<ScenarioSpec>& specs,
                         const RunOptions& options,
                         const SuiteMemberCallback& on_member) {
  SuiteRunResult suite;
  suite.members.resize(specs.size());
  if (specs.empty()) return suite;

  const int threads =
      options.pool ? options.pool->thread_count()
                   : runtime::ThreadPool::resolve_thread_count(options.threads);
  if (!options.pool && threads <= 1) {
    // Serial reference: members in order, each campaign on this thread.
    for (std::size_t i = 0; i < specs.size(); ++i) {
      suite.members[i] = run_scenario(specs[i], options);
      if (on_member) on_member(i, suite.members[i]);
      if (!suite.members[i].complete) suite.complete = false;
      if (options.cancel && options.cancel->load(std::memory_order_relaxed)) {
        suite.complete = false;
        break;
      }
    }
    return suite;
  }

  std::unique_ptr<runtime::ThreadPool> owned_pool;
  runtime::ThreadPool* pool = options.pool;
  if (!pool) {
    owned_pool = std::make_unique<runtime::ThreadPool>(threads);
    pool = owned_pool.get();
  }

  // One coordinator thread per member: it holds the member's single-flight
  // lock, writes its journal (appending the records its campaign's tasks
  // hand back), and builds its summary, while the measurement tasks
  // themselves all run on the shared pool. Coordinators must be dedicated
  // threads, not pool tasks — a coordinator blocks waiting for its
  // campaign's cells, and a blocked pool task would eat a worker the cells
  // need.
  std::vector<std::exception_ptr> errors(specs.size());
  std::vector<std::thread> coordinators;
  coordinators.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    coordinators.emplace_back([&, i, pool] {
      try {
        RunOptions member_options = options;
        member_options.pool = pool;
        suite.members[i] = run_scenario(specs[i], member_options);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }

  // Ordered emission: join in member order and emit each member as soon as
  // its whole prefix has landed. After the first error, later members still
  // join (they ran; the cache keeps their work) but are not emitted — the
  // serial loop would have thrown before reaching them.
  std::exception_ptr first_error;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    coordinators[i].join();
    if (first_error) continue;
    if (errors[i]) {
      first_error = errors[i];
      continue;
    }
    if (on_member) on_member(i, suite.members[i]);
    if (!suite.members[i].complete) suite.complete = false;
  }
  if (first_error) std::rethrow_exception(first_error);
  return suite;
}

}  // namespace cloudrepro::scenario
