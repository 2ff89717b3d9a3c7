#include "bigdata/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "cloud/tc_emulator.h"
#include "faults/injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simnet/fluid_network.h"
#include "simnet/token_bucket.h"
#include "stats/descriptive.h"

namespace cloudrepro::bigdata {

namespace {

constexpr double kTimeEpsilon = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Makespan of `tasks` lognormally-jittered tasks greedily packed onto
/// `cores` cores (list scheduling: each task goes to the least-loaded core,
/// the lowest index on ties). `core_load` is caller-owned scratch.
double compute_makespan(int tasks, int cores, double mean_s, double cv,
                        stats::Rng& rng, std::vector<double>& core_load) {
  if (tasks <= 0) return 0.0;
  // Lognormal with the requested mean and coefficient of variation.
  const double sigma2 = std::log(1.0 + cv * cv);
  const double mu = std::log(mean_s) - sigma2 / 2.0;
  const double sigma = std::sqrt(sigma2);
  core_load.assign(static_cast<std::size_t>(cores), 0.0);
  // While idle cores remain, the least-loaded core is the next idle one:
  // every busy core holds a positive draw (an exp), and the lowest-index
  // tie rule picks idle cores in index order.
  const int first_wave = std::min(tasks, cores);
  for (int t = 0; t < first_wave; ++t) {
    core_load[static_cast<std::size_t>(t)] += rng.lognormal(mu, sigma);
  }
  for (int t = first_wave; t < tasks; ++t) {
    // std::min_element's rule: strict <, so the first minimum wins.
    std::size_t least = 0;
    double least_load = core_load[0];
    for (std::size_t c = 1; c < core_load.size(); ++c) {
      if (core_load[c] < least_load) {
        least_load = core_load[c];
        least = c;
      }
    }
    core_load[least] += rng.lognormal(mu, sigma);
  }
  return *std::max_element(core_load.begin(), core_load.end());
}

/// Per-node shuffle-volume weights with mean 1: Zipf-shaped over a random
/// node permutation (so the heavy node is not always node 0).
std::vector<double> skew_weights(std::size_t nodes, double skew, stats::Rng& rng) {
  std::vector<double> w(nodes, 1.0);
  if (skew <= 0.0) return w;
  double sum = 0.0;
  for (std::size_t i = 0; i < nodes; ++i) {
    w[i] = 1.0 / std::pow(static_cast<double>(i) + 1.0, skew);
    sum += w[i];
  }
  const double norm = static_cast<double>(nodes) / sum;
  for (auto& v : w) v *= norm;
  const auto perm = rng.permutation(nodes);
  std::vector<double> shuffled(nodes);
  for (std::size_t i = 0; i < nodes; ++i) shuffled[perm[i]] = w[i];
  return shuffled;
}

/// Accumulates per-node egress timelines in fixed buckets from simulator
/// steps (steps may span several buckets; rates are constant within a step).
class TimelineRecorder {
 public:
  TimelineRecorder(std::size_t nodes, double interval_s)
      : interval_s_{interval_s}, gbit_in_bucket_(nodes, 0.0), timelines_(nodes) {}

  void observe(const simnet::FluidNetwork& net, double t_end, double dt) {
    if (interval_s_ <= 0.0) return;
    double t = t_end - dt;
    while (t < t_end - 1e-12) {
      const double bucket_end = (std::floor(t / interval_s_) + 1.0) * interval_s_;
      const double chunk = std::min(bucket_end, t_end) - t;
      for (std::size_t n = 0; n < gbit_in_bucket_.size(); ++n) {
        gbit_in_bucket_[n] += net.node_egress_rate(n) * chunk;
      }
      t += chunk;
      if (t >= bucket_end - 1e-12) {
        for (std::size_t n = 0; n < gbit_in_bucket_.size(); ++n) {
          TimelinePoint p;
          p.t = bucket_end;
          p.egress_gbps = gbit_in_bucket_[n] / interval_s_;
          p.budget_gbit = net.node_qos(n).budget_gbit().value_or(-1.0);
          timelines_[n].push_back(p);
          gbit_in_bucket_[n] = 0.0;
        }
      }
    }
  }

  std::vector<std::vector<TimelinePoint>> take() { return std::move(timelines_); }

 private:
  double interval_s_;
  std::vector<double> gbit_in_bucket_;
  std::vector<std::vector<TimelinePoint>> timelines_;
};

/// One job execution: the stage loop plus the fault/recovery machinery.
/// Everything here is a pure function of (options, workload, cluster state,
/// fault plan, rng), so runs stay reproducible per seed even under faults.
class JobExecution {
 public:
  JobExecution(const EngineOptions& options, const WorkloadProfile& workload,
               Cluster& cluster, stats::Rng& rng, std::vector<double> weights)
      : opt_{options},
        workload_{workload},
        cluster_{cluster},
        rng_{rng},
        weights_{std::move(weights)},
        n_{cluster.node_count()},
        injector_{options.fault_plan},
        recorder_{n_, options.timeline_interval_s} {
    for (std::size_t i = 0; i < n_; ++i) {
      net_.add_node(cluster_.node(i).egress->clone(), cluster_.node(i).line_rate_gbps);
    }
    alive_.assign(n_, 1);
    draining_.assign(n_, 0);
    // Inherit health the cluster carries from previous runs: failed nodes
    // stay dead, degraded ones start slow.
    for (std::size_t i = 0; i < n_; ++i) {
      switch (cluster_.node(i).health) {
        case NodeHealth::kFailed:
          alive_[i] = 0;
          net_.fail_node(i);
          break;
        case NodeHealth::kDegraded:
          net_.set_node_rate_factor(i, cluster_.node(i).degrade_factor);
          break;
        case NodeHealth::kUp:
          break;
      }
    }
    if (opt_.timeline_interval_s > 0.0) {
      net_.set_step_observer([this](const simnet::FluidNetwork& n, double t, double dt) {
        recorder_.observe(n, t, dt);
      });
    }
    net_.set_observability(opt_.tracer, opt_.metrics);
    injector_.set_tracer(opt_.tracer);
    if (opt_.metrics) {
      c_task_retries_ = &opt_.metrics->counter("engine.task_retries");
      c_speculations_ = &opt_.metrics->counter("engine.speculative_launches");
      c_nodes_lost_ = &opt_.metrics->counter("engine.nodes_lost");
      c_jobs_ = &opt_.metrics->counter("engine.jobs");
    }
  }

  JobResult execute() {
    result_.workload = workload_.name;
    result_.per_node_sent_gbit.assign(n_, 0.0);
    result_.node_egress_busy_s.assign(n_, 0.0);

    // Per-run, per-node machine speed factors (non-network variability).
    node_speed_.assign(n_, 1.0);
    if (opt_.machine_noise_cv > 0.0) {
      const double sigma2 =
          std::log(1.0 + opt_.machine_noise_cv * opt_.machine_noise_cv);
      for (auto& f : node_speed_) f = rng_.lognormal(-sigma2 / 2.0, std::sqrt(sigma2));
    }

    if (workers().size() < 2) {
      throw std::runtime_error{
          "SparkEngine: fewer than 2 healthy nodes at job submission"};
    }
    // Each stage's all-to-all shuffle starts at most n x (n - 1) flows.
    net_.reserve_flows(workload_.stages.size() * n_ * (n_ - 1));
    for (const auto& stage : workload_.stages) run_stage(stage);
    finalize();
    return std::move(result_);
  }

 private:
  struct StageState {
    const StageProfile* profile = nullptr;
    double start = 0.0;        ///< Stage (and shuffle) start time.
    double compute_end = 0.0;  ///< Dynamic barrier: crashes extend it.
    std::vector<simnet::FlowId> flows;  ///< All flows launched this stage.
    std::vector<char> speculated;       ///< Per-node: already speculated once.
    double next_check = kInf;
    int retries = 0;
  };
  struct PendingResend {
    double at_s = 0.0;  ///< Launch time (crash time + retry backoff).
    double gbit = 0.0;
  };

  std::vector<std::size_t> workers() const {
    std::vector<std::size_t> w;
    for (std::size_t i = 0; i < n_; ++i) {
      if (alive_[i] && !draining_[i]) w.push_back(i);
    }
    return w;
  }

  std::size_t alive_count() const {
    std::size_t c = 0;
    for (std::size_t i = 0; i < n_; ++i) c += alive_[i] ? 1 : 0;
    return c;
  }

  void run_stage(const StageProfile& stage) {
    st_ = StageState{};
    st_.profile = &stage;
    st_.start = net_.now();
    st_.speculated.assign(n_, 0);
    if (opt_.speculation.enabled) {
      st_.next_check = st_.start + opt_.speculation.check_interval_s;
    }

    const auto stage_workers = workers();

    // Compute wave: barrier at the slowest node's makespan. CPU-credit
    // shaping (burstable instances) stretches a node's compute once its
    // credits deplete — the CPU analogue of the network token bucket.
    makespans_.assign(n_, 0.0);
    double stage_compute = 0.0;
    for (const std::size_t i : stage_workers) {
      double makespan =
          node_speed_[i] * compute_makespan(stage.tasks_per_node, cluster_.cores_per_node(),
                                            stage.compute_s_mean, stage.compute_s_cv, rng_,
                                            core_load_);
      if (cluster_.node(i).cpu.has_value()) {
        makespan = cluster_.node(i).cpu->run_compute(makespan);
      }
      makespans_[i] = makespan;
      stage_compute = std::max(stage_compute, makespan);
    }
    st_.compute_end = st_.start + stage_compute;

    // Shuffle transfers overlap the stage's compute: map tasks stream their
    // output as they produce it (Spark pipelines shuffle writes/fetches with
    // task execution). The stage barrier falls at whichever finishes last.
    // This overlap is essential for reproducing the paper's token-bucket
    // effects — it keeps the network busy, so bucket budgets are not
    // silently replenished during compute-only phases.
    if (stage.shuffle_gbit_per_node > 0.0 && stage_workers.size() > 1) {
      st_.flows.reserve(stage_workers.size() * (stage_workers.size() - 1));
      for (const std::size_t src : stage_workers) {
        const double send_gbit = stage.shuffle_gbit_per_node * weights_[src];
        const double per_peer = send_gbit / static_cast<double>(stage_workers.size() - 1);
        result_.per_node_sent_gbit[src] += send_gbit;
        for (const std::size_t dst : stage_workers) {
          if (dst == src) continue;
          st_.flows.push_back(net_.start_flow(src, dst, per_peer));
        }
      }
    }

    // Phase 1: run to the compute barrier, replaying fault events at their
    // exact times (a crash may extend the barrier with redo work).
    while (net_.now() < st_.compute_end - kTimeEpsilon) {
      const double t_stop = std::min(st_.compute_end, next_action_time());
      if (t_stop > net_.now()) net_.run_until(t_stop);
      process_due_actions();
    }
    // Nodes that finished early idle at the barrier and earn CPU credits.
    const double barrier_span = st_.compute_end - st_.start;
    for (const std::size_t i : stage_workers) {
      if (alive_[i] && cluster_.node(i).cpu.has_value()) {
        cluster_.node(i).cpu->advance(std::max(0.0, barrier_span - makespans_[i]), 0.0);
      }
    }

    // Phase 2: drain the shuffle — original flows, retried re-shuffles, and
    // speculative re-executions — before the stage barrier releases.
    while (stage_flows_pending() || !resends_.empty()) {
      const double t_next =
          std::max(std::min(opt_.deadline_s, next_action_time()), net_.now());
      if (stage_flows_pending()) {
        net_.run_until_flows_complete(t_next);
      } else if (t_next > net_.now()) {
        net_.run_until(t_next);  // Idle until the next retry launches.
      }
      process_due_actions();
      if ((stage_flows_pending() || !resends_.empty()) &&
          net_.now() >= opt_.deadline_s - kTimeEpsilon) {
        throw std::runtime_error{
            "SparkEngine: shuffle did not finish before the deadline"};
      }
    }

    if (!st_.flows.empty()) {
      std::vector<double> stage_busy(n_, 0.0);
      for (const auto id : st_.flows) {
        const auto& f = net_.flow(id);
        stage_busy[f.src] = std::max(stage_busy[f.src], f.end_time - st_.start);
      }
      for (std::size_t i = 0; i < n_; ++i) {
        result_.node_egress_busy_s[i] += stage_busy[i];
      }
    }

    if (opt_.tracer) {
      opt_.tracer->complete(st_.start, net_.now() - st_.start, "engine", "stage",
                            {"stage", static_cast<double>(stage_idx_)},
                            {"retries", static_cast<double>(st_.retries)}, 0, 1);
    }
    ++stage_idx_;
  }

  bool stage_flows_pending() const {
    for (const auto id : st_.flows) {
      if (net_.flow(id).active) return true;
    }
    return false;
  }

  /// Earliest pending engine action: fault event, retry launch, or
  /// speculation scan.
  double next_action_time() const {
    double t = injector_.next_time();
    for (const auto& r : resends_) t = std::min(t, r.at_s);
    if (opt_.speculation.enabled && stage_flows_pending()) {
      t = std::min(t, st_.next_check);
    }
    return t;
  }

  void process_due_actions() {
    const double now = net_.now();
    while (injector_.next_time() <= now + kTimeEpsilon) {
      handle_fault(injector_.pop());
    }
    for (std::size_t i = 0; i < resends_.size();) {
      if (resends_[i].at_s <= now + kTimeEpsilon) {
        const double gbit = resends_[i].gbit;
        resends_.erase(resends_.begin() + static_cast<std::ptrdiff_t>(i));
        launch_resend(gbit);
      } else {
        ++i;
      }
    }
    if (opt_.speculation.enabled && st_.next_check <= now + kTimeEpsilon) {
      speculation_check();
      st_.next_check += opt_.speculation.check_interval_s;
    }
  }

  void handle_fault(const faults::FaultEvent& ev) {
    if (ev.node >= n_) return;  // Plan sampled for a larger cluster.
    switch (ev.kind) {
      case faults::FaultKind::kTransientSlowdown: {
        if (!alive_[ev.node]) break;
        if (ev.magnitude >= 1.0) {  // Synthetic restore at window end.
          net_.set_node_rate_factor(ev.node, 1.0);
          cluster_.restore_node(ev.node);
        } else {
          net_.set_node_rate_factor(ev.node, ev.magnitude);
          cluster_.degrade_node(ev.node, ev.magnitude);
          if (ev.duration_s > 0.0) {
            injector_.schedule({faults::FaultKind::kTransientSlowdown,
                                ev.at_s + ev.duration_s, ev.node, 0.0, 1.0});
          }
        }
        break;
      }
      case faults::FaultKind::kLinkFlap: {
        if (!alive_[ev.node]) break;
        if (ev.magnitude <= 0.0) {  // Synthetic restore at burst end.
          net_.set_node_loss(ev.node, 0.0);
          cluster_.restore_node(ev.node);
        } else {
          net_.set_node_loss(ev.node, ev.magnitude);
          cluster_.degrade_node(ev.node, 1.0 - ev.magnitude);
          if (ev.duration_s > 0.0) {
            injector_.schedule({faults::FaultKind::kLinkFlap,
                                ev.at_s + ev.duration_s, ev.node, 0.0, 0.0});
          }
        }
        break;
      }
      case faults::FaultKind::kTokenTheft: {
        if (!alive_[ev.node]) break;
        auto& qos = net_.node_qos(ev.node);
        if (auto* tb = dynamic_cast<simnet::TokenBucketQos*>(&qos)) {
          tb->bucket().set_budget(std::max(0.0, tb->bucket().budget() - ev.magnitude));
        } else if (auto* tc = dynamic_cast<cloud::TcEmulator*>(&qos)) {
          tc->bucket().set_budget(std::max(0.0, tc->bucket().budget() - ev.magnitude));
        }
        break;
      }
      case faults::FaultKind::kSpotRevocation: {
        if (!alive_[ev.node] || draining_[ev.node]) break;
        // The node finishes in-flight work during the notice window but is
        // assigned nothing new; the instance disappears when it expires.
        draining_[ev.node] = 1;
        injector_.schedule({faults::FaultKind::kNodeCrash,
                            ev.at_s + ev.duration_s, ev.node, 0.0, 0.0});
        break;
      }
      case faults::FaultKind::kNodeCrash:
        crash_node(ev.node);
        break;
    }
  }

  void crash_node(std::size_t k) {
    if (!alive_[k]) return;
    alive_[k] = 0;
    draining_[k] = 0;
    cluster_.fail_node(k);
    ++result_.recovery.nodes_lost;
    if (c_nodes_lost_) c_nodes_lost_->add();
    if (opt_.tracer) {
      opt_.tracer->instant(net_.now(), "engine", "node_crash",
                           {"node", static_cast<double>(k)}, {},
                           static_cast<std::uint32_t>(k), 1);
    }
    if (alive_count() < 2) {
      throw std::runtime_error{
          "SparkEngine: too many node failures — fewer than 2 nodes remain"};
    }

    // Compute still running on k is lost; survivors redo the whole task wave
    // (the recompute-from-replicated-input approximation).
    const bool redo_compute =
        net_.now() < st_.compute_end - kTimeEpsilon && makespans_[k] > 0.0;
    if (redo_compute) {
      result_.recovery.lost_compute_s +=
          std::min(net_.now() - st_.start, makespans_[k]);
    }

    // In-flight shuffle bytes touching k are gone: k's own unsent output,
    // plus survivors' transfers to k (its reduce partitions move, so those
    // bytes must be re-fetched by whoever inherits them).
    double lost_out = 0.0;
    double orphaned_in = 0.0;
    for (const auto id : st_.flows) {
      const auto& f = net_.flow(id);
      if (!f.active) continue;
      if (f.src == k) {
        lost_out += f.remaining_gbit;
      } else if (f.dst == k) {
        orphaned_in += f.remaining_gbit;
        result_.per_node_sent_gbit[f.src] -= f.remaining_gbit;
      }
    }
    net_.fail_node(k);  // Stops every flow k sources or sinks, right now.
    result_.recovery.lost_gbit += lost_out;
    result_.per_node_sent_gbit[k] -= lost_out;  // Never made it onto the wire.

    const double resend_gbit = lost_out + orphaned_in;
    if (!redo_compute && resend_gbit <= 0.0) return;  // Nothing to retry.

    ++st_.retries;
    ++result_.recovery.task_retries;
    if (c_task_retries_) c_task_retries_->add();
    if (opt_.tracer) {
      opt_.tracer->instant(net_.now(), "engine", "task_retry",
                           {"node", static_cast<double>(k)},
                           {"attempt", static_cast<double>(st_.retries)},
                           static_cast<std::uint32_t>(k), 1);
    }
    if (st_.retries > opt_.retry.max_attempts) {
      throw std::runtime_error{"SparkEngine: stage retry budget exhausted"};
    }
    const double delay = opt_.retry.delay(st_.retries);
    result_.recovery.backoff_wait_s += delay;
    if (redo_compute) {
      // k's tasks re-run spread across every surviving worker's cores.
      const auto surv = workers();
      const int surv_cores =
          cluster_.cores_per_node() * static_cast<int>(surv.size());
      const double redo =
          compute_makespan(st_.profile->tasks_per_node, surv_cores,
                           st_.profile->compute_s_mean, st_.profile->compute_s_cv, rng_,
                           core_load_);
      st_.compute_end = std::max(st_.compute_end, net_.now() + delay + redo);
    }
    if (resend_gbit > 0.0) {
      resends_.push_back({net_.now() + delay, resend_gbit});
    }
  }

  /// Re-shuffles bytes lost to a node failure: survivors regenerate and
  /// exchange them evenly (all-to-all over the surviving workers).
  void launch_resend(double gbit) {
    const auto surv = workers();
    if (surv.size() < 2) {
      throw std::runtime_error{
          "SparkEngine: not enough nodes to re-execute lost shuffle work"};
    }
    const double per_flow =
        gbit / static_cast<double>(surv.size() * (surv.size() - 1));
    if (per_flow <= 0.0) return;
    for (const std::size_t src : surv) {
      result_.per_node_sent_gbit[src] +=
          per_flow * static_cast<double>(surv.size() - 1);
      for (const std::size_t dst : surv) {
        if (dst == src) continue;
        st_.flows.push_back(net_.start_flow(src, dst, per_flow));
      }
    }
  }

  /// Fastest healthy worker by currently-grantable egress rate, excluding
  /// `exclude_a`/`exclude_b`; n_ (invalid) when none qualifies.
  std::size_t fastest_worker(std::size_t exclude_a, std::size_t exclude_b) const {
    std::size_t best = n_;
    double best_rate = 0.0;
    for (const std::size_t i : workers()) {
      if (i == exclude_a || i == exclude_b) continue;
      const double rate = net_.node_allowed_rate(i);
      if (rate > best_rate) {
        best_rate = rate;
        best = i;
      }
    }
    return best;
  }

  /// Straggler scan: any source whose current egress rate has collapsed
  /// below median / threshold gets its remaining transfers stopped and
  /// re-launched from the fastest healthy node (speculative execution).
  void speculation_check() {
    std::vector<std::size_t> sources;
    std::vector<double> rates;
    std::vector<char> has_active(n_, 0);
    for (const auto id : st_.flows) {
      const auto& f = net_.flow(id);
      if (f.active) has_active[f.src] = 1;
    }
    for (std::size_t i = 0; i < n_; ++i) {
      if (has_active[i] && alive_[i]) {
        sources.push_back(i);
        rates.push_back(net_.node_egress_rate(i));
      }
    }
    if (sources.size() < 2) return;
    const double med = stats::median(rates);
    if (med <= 0.0) return;

    for (std::size_t s = 0; s < sources.size(); ++s) {
      const std::size_t straggler = sources[s];
      if (st_.speculated[straggler]) continue;
      if (rates[s] >= med / opt_.speculation.slowdown_threshold) continue;

      double remaining = 0.0;
      std::vector<simnet::FlowId> victim_flows;
      for (const auto id : st_.flows) {
        const auto& f = net_.flow(id);
        if (f.active && f.src == straggler) {
          remaining += f.remaining_gbit;
          victim_flows.push_back(id);
        }
      }
      if (remaining < opt_.speculation.min_remaining_gbit) continue;
      const std::size_t donor = fastest_worker(straggler, n_);
      if (donor >= n_ || net_.node_allowed_rate(donor) <= rates[s]) continue;

      st_.speculated[straggler] = 1;
      ++result_.recovery.speculative_launches;
      result_.recovery.speculated_gbit += remaining;
      if (c_speculations_) c_speculations_->add();
      if (opt_.tracer) {
        opt_.tracer->instant(net_.now(), "engine", "speculation",
                             {"straggler", static_cast<double>(straggler)},
                             {"gbit", remaining},
                             static_cast<std::uint32_t>(straggler), 1);
      }
      for (const auto id : victim_flows) {
        const double rem = net_.flow(id).remaining_gbit;
        const std::size_t dst = net_.flow(id).dst;
        net_.stop_flow(id);
        // The speculative copy runs on the donor; a transfer *to* the donor
        // falls back to the next-fastest source (or stays home on a 2-node
        // remnant, where speculation cannot help that peer).
        std::size_t src_new = donor;
        if (dst == donor) {
          const std::size_t alt = fastest_worker(straggler, dst);
          src_new = alt < n_ ? alt : straggler;
        }
        result_.per_node_sent_gbit[straggler] -= rem;
        result_.per_node_sent_gbit[src_new] += rem;
        st_.flows.push_back(net_.start_flow(src_new, dst, rem));
      }
    }
  }

  void finalize() {
    result_.runtime_s = net_.now();
    if (c_jobs_) c_jobs_->add();
    if (opt_.tracer) {
      // Each job starts its own fluid network at t = 0, so the job span
      // covers [0, runtime] in that job's simulated-time frame.
      opt_.tracer->complete(
          0.0, result_.runtime_s, "engine", "job",
          {"retries", static_cast<double>(result_.recovery.task_retries)},
          {"nodes_lost", static_cast<double>(result_.recovery.nodes_lost)},
          0, 1);
    }
    if (opt_.timeline_interval_s > 0.0) result_.timelines = recorder_.take();

    // Straggler analysis on *effective egress rates* (sent / busy): mere load
    // imbalance keeps every node at the same QoS rate, so the ratio stays
    // near 1; a node whose bucket depleted collapses to the capped rate and
    // sticks out regardless of how much it had to send.
    result_.node_effective_rate_gbps.assign(n_, 0.0);
    std::vector<double> rates;
    std::vector<double> busys;
    for (std::size_t i = 0; i < n_; ++i) {
      if (result_.node_egress_busy_s[i] > 0.0) {
        result_.node_effective_rate_gbps[i] =
            result_.per_node_sent_gbit[i] / result_.node_egress_busy_s[i];
        rates.push_back(result_.node_effective_rate_gbps[i]);
        busys.push_back(result_.node_egress_busy_s[i]);
      }
    }
    if (!rates.empty()) {
      const auto slowest_it = std::min_element(rates.begin(), rates.end());
      // Map back to the node index (rates skips idle nodes).
      for (std::size_t i = 0; i < n_; ++i) {
        if (result_.node_egress_busy_s[i] > 0.0 &&
            result_.node_effective_rate_gbps[i] == *slowest_it) {
          result_.slowest_node = i;
          break;
        }
      }
      result_.straggler_ratio = compute_straggler_ratio(rates);
    }
    if (busys.size() >= 2) {
      const double med_busy = stats::median(busys);
      const double max_busy = *std::max_element(busys.begin(), busys.end());
      if (med_busy > 0.0) result_.completion_straggler_ratio = max_busy / med_busy;
    }
    for (std::size_t i = 0; i < n_; ++i) {
      result_.recovery.retransmitted_gbit += net_.node_retransmitted_gbit(i);
    }

    // Persist QoS state back into the cluster: the next job starts with
    // whatever budget this one left behind.
    for (std::size_t i = 0; i < n_; ++i) {
      cluster_.node(i).egress = net_.node_qos(i).clone();
    }
  }

  const EngineOptions& opt_;
  const WorkloadProfile& workload_;
  Cluster& cluster_;
  stats::Rng& rng_;
  std::vector<double> weights_;
  std::size_t n_;
  simnet::FluidNetwork net_;
  faults::FaultInjector injector_;
  TimelineRecorder recorder_;
  JobResult result_;
  std::vector<char> alive_;
  std::vector<char> draining_;
  std::vector<double> node_speed_;
  std::vector<double> makespans_;
  std::vector<double> core_load_;  ///< compute_makespan's scratch.
  StageState st_;
  std::vector<PendingResend> resends_;
  std::size_t stage_idx_ = 0;
  obs::Counter* c_task_retries_ = nullptr;
  obs::Counter* c_speculations_ = nullptr;
  obs::Counter* c_nodes_lost_ = nullptr;
  obs::Counter* c_jobs_ = nullptr;
};

}  // namespace

double RetryPolicy::delay(int attempt) const noexcept {
  double d = backoff_base_s;
  for (int i = 1; i < attempt; ++i) d *= backoff_factor;
  return std::min(d, backoff_cap_s);
}

double compute_straggler_ratio(std::span<const double> effective_rates) noexcept {
  // Fewer than two busy nodes can never evidence a straggler: there is no
  // peer to be slower than.
  if (effective_rates.size() < 2) return 1.0;
  const double slowest =
      *std::min_element(effective_rates.begin(), effective_rates.end());
  const double med = stats::median(effective_rates);
  if (med <= 0.0) return 1.0;  // Nothing moved anywhere — no straggler signal.
  // Clamp a zero/near-zero slowest rate (a node whose every byte was lost or
  // speculated away) so the ratio stays finite instead of dividing by ~0.
  constexpr double kMinRateGbps = 1e-9;
  return med / std::max(slowest, kMinRateGbps);
}

SparkEngine::SparkEngine(EngineOptions options) : options_{std::move(options)} {
  if (options_.partition_skew < 0.0) {
    throw std::invalid_argument{"SparkEngine: partition_skew must be non-negative"};
  }
  if (options_.retry.max_attempts < 0) {
    throw std::invalid_argument{"SparkEngine: retry.max_attempts must be >= 0"};
  }
  if (options_.retry.backoff_base_s < 0.0 || options_.retry.backoff_factor < 1.0) {
    throw std::invalid_argument{"SparkEngine: invalid retry backoff"};
  }
  if (options_.speculation.enabled &&
      (options_.speculation.check_interval_s <= 0.0 ||
       options_.speculation.slowdown_threshold <= 1.0)) {
    throw std::invalid_argument{"SparkEngine: invalid speculation policy"};
  }
}

JobResult SparkEngine::run(const WorkloadProfile& workload, Cluster& cluster,
                           stats::Rng& rng) {
  const std::size_t n_nodes = cluster.node_count();

  // The imbalance is a property of the job's partitioning, consistent
  // across its stages — and, with stable partitioning, across consecutive
  // submissions of the job (the Figure 15/18 regime where one node's bucket
  // drains run after run).
  std::vector<double> weights;
  if (options_.stable_partitioning && cached_weights_.size() == n_nodes) {
    weights = cached_weights_;
  } else {
    weights = skew_weights(n_nodes, options_.partition_skew, rng);
    if (options_.stable_partitioning) cached_weights_ = weights;
  }

  JobExecution exec{options_, workload, cluster, rng, std::move(weights)};
  return exec.execute();
}

}  // namespace cloudrepro::bigdata
