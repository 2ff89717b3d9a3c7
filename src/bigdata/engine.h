#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "bigdata/cluster.h"
#include "bigdata/workload.h"
#include "faults/fault_plan.h"
#include "stats/rng.h"

namespace cloudrepro::obs {
class MetricsRegistry;
class Tracer;
}  // namespace cloudrepro::obs

namespace cloudrepro::bigdata {

/// One point of a per-node network timeline (Figures 15 and 18): the mean
/// egress rate over the sampling bucket, and the remaining token budget at
/// the bucket boundary (negative when the policy tracks no budget).
struct TimelinePoint {
  double t = 0.0;
  double egress_gbps = 0.0;
  double budget_gbit = -1.0;
};

/// Counters quantifying what fault recovery cost a job — retries, lost work,
/// speculation volume. Benches use these to measure whether mitigation
/// actually restores CI width and i.i.d.-ness or merely trades runtime for
/// variance.
struct RecoveryStats {
  int task_retries = 0;           ///< Stage-level re-executions after a node loss.
  int speculative_launches = 0;   ///< Straggler transfers re-executed elsewhere.
  double speculated_gbit = 0.0;   ///< Shuffle volume moved by speculation.
  double lost_compute_s = 0.0;    ///< Compute thrown away by failures.
  double lost_gbit = 0.0;         ///< In-flight shuffle bytes lost to failures.
  double backoff_wait_s = 0.0;    ///< Time spent in retry backoff.
  double retransmitted_gbit = 0.0;///< Bytes burned by loss bursts (link flap).
  int nodes_lost = 0;             ///< Nodes that died during this job.
};

/// Outcome of one job execution.
struct JobResult {
  std::string workload;
  double runtime_s = 0.0;

  /// Gbit each node pushed into shuffles.
  std::vector<double> per_node_sent_gbit;

  /// Total time each node's egress spent busy across all shuffles
  /// (per-stage: last sourced flow's end minus the stage's shuffle start).
  std::vector<double> node_egress_busy_s;

  /// Effective egress rate of each node while busy (sent / busy, Gbps).
  /// A healthy node runs near the high QoS; a bucket-depleted node's
  /// effective rate collapses toward the capped rate.
  std::vector<double> node_effective_rate_gbps;

  /// The node with the lowest effective egress rate, and how much faster
  /// the median node was (median rate / slowest rate). Load imbalance alone
  /// keeps this near 1 (all nodes at the same QoS); only QoS throttling of
  /// *some* nodes pushes it up — >1.5 flags a straggler (Figure 18, F4.3).
  std::size_t slowest_node = 0;
  double straggler_ratio = 1.0;

  /// Completion-time view of the same phenomenon: slowest node's total
  /// egress-busy time over the median node's. This is the ratio mitigation
  /// can actually repair — speculation cannot make a throttled NIC faster,
  /// but it can stop the job from waiting on it.
  double completion_straggler_ratio = 1.0;

  /// Fault-recovery accounting (all zero on fault-free runs).
  RecoveryStats recovery;

  /// Per-node egress timelines (empty when recording is disabled).
  std::vector<std::vector<TimelinePoint>> timelines;

  bool has_straggler(double threshold = 1.5) const noexcept {
    return straggler_ratio >= threshold;
  }
};

/// Bounded exponential backoff for task retry after a node loss, Spark's
/// `spark.task.maxFailures` analogue.
struct RetryPolicy {
  int max_attempts = 4;        ///< Stage retries before the job aborts.
  double backoff_base_s = 1.0;
  double backoff_factor = 2.0;
  double backoff_cap_s = 60.0;

  /// Delay before retry number `attempt` (1-based).
  double delay(int attempt) const noexcept;
};

/// Opt-in speculative re-execution of straggling shuffle transfers
/// (Spark's `spark.speculation`). A source whose current egress rate falls
/// below median / `slowdown_threshold` has its remaining transfers stopped
/// and re-launched from the fastest healthy node.
struct SpeculationPolicy {
  bool enabled = false;
  double slowdown_threshold = 2.0;  ///< Flag nodes slower than median/this.
  double check_interval_s = 30.0;   ///< Straggler scan cadence (sim time).
  double min_remaining_gbit = 1.0;  ///< Don't speculate nearly-done transfers.
};

struct EngineOptions {
  /// Zipf exponent of per-node shuffle-volume weights. 0 = perfectly
  /// balanced; positive values model the "(imbalanced) big data
  /// applications" whose interaction with token buckets creates stragglers
  /// (F4.3).
  double partition_skew = 0.0;

  /// Keep the same node-to-load assignment across consecutive runs (the
  /// same input partitioning re-submitted repeatedly, as in Figures 15/18).
  /// When false, every job draws a fresh assignment, spreading the drain
  /// evenly across nodes.
  bool stable_partitioning = true;

  /// Timeline sampling interval; 0 disables timeline recording.
  double timeline_interval_s = 0.0;

  /// Non-network machine variability (CPU steal, memory bandwidth, I/O):
  /// each run draws a per-node lognormal speed factor with this coefficient
  /// of variation and scales compute times by it. The paper notes that when
  /// "running experiments directly on these clouds we cannot differentiate
  /// the effects of network variability from other sources" (Section 4.1) —
  /// set this non-zero to model direct-on-cloud runs (Figure 13); leave 0
  /// for the isolated-emulation experiments (Figures 15-19).
  double machine_noise_cv = 0.0;

  /// Safety horizon for a single job.
  double deadline_s = 24.0 * 3600.0;

  /// Fault schedule applied to every run, with times relative to job start.
  /// Empty = fault-free (the default, and bit-compatible with the
  /// pre-faults engine).
  faults::FaultPlan fault_plan;

  RetryPolicy retry;
  SpeculationPolicy speculation;

  /// Observability sinks (either may be null; see src/obs). When set, each
  /// run wires them through the fluid network and fault injector, records
  /// stage / job spans and crash / retry / speculation instants in simulated
  /// time, and bumps the `engine.*` counters — which reconcile exactly with
  /// the job's `RecoveryStats`.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// Median-over-slowest straggler ratio from per-node effective rates, with
/// the degenerate paths handled explicitly: fewer than two busy nodes can
/// never evidence a straggler (ratio 1), and a zero/near-zero slowest rate
/// is clamped so the ratio stays finite instead of dividing by ~0.
double compute_straggler_ratio(std::span<const double> effective_rates) noexcept;

/// Spark-like execution engine: runs a workload's stages as compute waves
/// separated by all-to-all shuffles over a fluid-simulated network built
/// from the cluster's per-node QoS policies. QoS state (token budgets,
/// warm-up paths) persists in the Cluster across runs, so back-to-back jobs
/// interact exactly as the paper describes: "an application influences not
/// only its own runtime, but also future applications' runtimes" (F4.2).
///
/// With a non-empty `EngineOptions::fault_plan`, the run replays the plan's
/// events at their exact simulated times: crashed nodes lose their in-flight
/// work, which survivors retry after bounded exponential backoff;
/// slowdowns/flaps degrade the fluid network; token theft drains budgets.
/// Health transitions are written back to the Cluster. All of it is a pure
/// function of (workload, cluster state, plan, seed).
class SparkEngine {
 public:
  explicit SparkEngine(EngineOptions options = {});

  JobResult run(const WorkloadProfile& workload, Cluster& cluster, stats::Rng& rng);

  const EngineOptions& options() const noexcept { return options_; }

 private:
  EngineOptions options_;
  /// Cached per-node load weights for stable partitioning.
  std::vector<double> cached_weights_;
};

}  // namespace cloudrepro::bigdata
