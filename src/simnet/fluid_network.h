#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "simnet/qos.h"
#include "simnet/units.h"

namespace cloudrepro::obs {
class Counter;
class MetricsRegistry;
class Tracer;
}  // namespace cloudrepro::obs

namespace cloudrepro::simnet {

using NodeId = std::size_t;
using FlowId = std::size_t;

/// A (possibly unbounded) data transfer between two nodes.
struct Flow {
  NodeId src = 0;
  NodeId dst = 0;
  double remaining_gbit = kInfiniteBytes;  ///< Gbit left; +inf for open-ended.
  double transferred_gbit = 0.0;
  double rate_gbps = 0.0;  ///< Current max-min fair allocation.
  bool active = false;
  double start_time = 0.0;
  double end_time = -1.0;  ///< Set when the flow completes or is stopped.
};

/// Fluid-flow discrete-event network simulator.
///
/// Bandwidth between VMs is modelled as a fluid: at any instant every active
/// flow receives its max-min fair share subject to (a) the *egress QoS
/// policy* of its source node — the mechanism the paper shows dominates
/// cloud network behaviour — and (b) the ingress line rate of its
/// destination. Time advances event-to-event: the next flow completion, the
/// next QoS state change (token-bucket depletion/recovery, jitter resample),
/// or the caller's horizon, whichever is first.
///
/// The fluid abstraction is exact for the bandwidth-oriented figures
/// (4, 5, 6, 10, 11, 14-19); packet-level effects (RTT, retransmissions —
/// Figures 7, 8, 9, 12) are handled by `PacketPath` and validated against
/// this model in `bench_ablation_fluid_vs_packet`.
class FluidNetwork {
 public:
  /// Observer invoked after every internal step with the post-step network
  /// and the step length. Probes use it to integrate rates into samples.
  using StepObserver = std::function<void(const FluidNetwork&, double t, double dt)>;

  FluidNetwork() = default;

  /// Adds a node with the given egress shaping policy and an optional
  /// ingress line-rate cap (defaults to unlimited).
  NodeId add_node(std::unique_ptr<QosPolicy> egress,
                  double ingress_cap_gbps = kInfiniteBytes);

  std::size_t node_count() const noexcept { return nodes_.size(); }

  /// Starts a transfer of `gbit` (default: open-ended) from src to dst.
  FlowId start_flow(NodeId src, NodeId dst, double gbit = kInfiniteBytes);

  /// Reserves room for `n` flow records, so a caller that knows how many
  /// flows it will start pays no reallocation while starting them.
  void reserve_flows(std::size_t n);

  /// Stops an open-ended flow (no-op if already complete).
  void stop_flow(FlowId id);

  /// Advances simulated time to `t_end`.
  void run_until(double t_end);

  /// Advances simulated time by `dt` seconds.
  void run_for(double dt) { run_until(now_ + dt); }

  /// Runs until every finite flow completes or `deadline` is reached.
  /// Returns true when all finite flows completed.
  bool run_until_flows_complete(double deadline);

  double now() const noexcept { return now_; }

  const Flow& flow(FlowId id) const { return flows_.at(id); }
  std::size_t flow_count() const noexcept { return flows_.size(); }
  std::size_t active_flow_count() const noexcept;

  QosPolicy& node_qos(NodeId id) { return *nodes_.at(id).egress; }
  const QosPolicy& node_qos(NodeId id) const { return *nodes_.at(id).egress; }

  /// Aggregate egress rate of a node under the current allocation. O(1):
  /// served from a cache maintained by `allocate_rates` and flow removal.
  double node_egress_rate(NodeId id) const;

  /// Aggregate ingress rate of a node under the current allocation. O(1).
  double node_ingress_rate(NodeId id) const;

  // --- Fault-injection hooks (src/faults drives these) ---------------------

  /// Scales the node's NIC — both the egress QoS grant and the ingress cap —
  /// by `factor` in (0, 1]. Models a transient slowdown (degraded
  /// line_rate_gbps); 1.0 restores full speed.
  void set_node_rate_factor(NodeId id, double factor);
  double node_rate_factor(NodeId id) const { return nodes_.at(id).rate_factor; }

  /// Packet-loss burst on the node's egress: fraction `loss` of every wire
  /// transmission is retransmitted bytes. Goodput (flow progress) drops to
  /// (1 - loss) x the allocated rate while the *wire* rate still drains the
  /// QoS token budget — lossy links burn budget without moving data.
  void set_node_loss(NodeId id, double loss);
  double node_loss(NodeId id) const { return nodes_.at(id).loss_fraction; }

  /// Cumulative retransmitted Gbit charged to the node's egress.
  double node_retransmitted_gbit(NodeId id) const {
    return nodes_.at(id).retransmitted_gbit;
  }

  /// Kills a node: every active flow it sources or sinks is stopped at the
  /// current time, and future start_flow calls touching it throw.
  void fail_node(NodeId id);
  bool node_failed(NodeId id) const { return nodes_.at(id).failed; }

  /// The egress rate currently grantable to the node (QoS grant x degrade
  /// factor); 0 for failed nodes. Speculation uses this to pick the fastest
  /// healthy donor.
  double node_allowed_rate(NodeId id) const;

  void set_step_observer(StepObserver observer) { observer_ = std::move(observer); }

  // --- Observability (src/obs) ---------------------------------------------

  /// Attaches a tracer and/or metrics registry (either may be null). Traced:
  /// flow starts/ends, rate reallocations, and token-bucket depletion /
  /// recovery transitions (stamped with simulated time, lane = node id,
  /// track 1). Counted: `simnet.allocations`, `simnet.steps`,
  /// `simnet.flows_started`, `simnet.flows_completed`.
  void set_observability(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  obs::Tracer* tracer() const noexcept { return tracer_; }

 private:
  struct Node {
    std::unique_ptr<QosPolicy> egress;
    double ingress_cap_gbps = kInfiniteBytes;
    double rate_factor = 1.0;     ///< Degrade multiplier on egress + ingress.
    double loss_fraction = 0.0;   ///< Egress packet-loss burst in effect.
    bool failed = false;
    double retransmitted_gbit = 0.0;
  };

  /// Computes the max-min fair allocation for all active flows
  /// (progressive filling) and rebuilds the per-node rate caches. Returns
  /// the time until the first finite flow completes at the new rates
  /// (+inf when none makes progress).
  double allocate_rates();

  /// Advances one event step, never past `t_bound`.
  void step_once(double t_bound);

  /// Removes an id from the active index (O(1) via the slot index).
  void deactivate(FlowId id);

  /// Swap-erases `active_ids_[slot]`, maintaining the slot index and
  /// subtracting the removed flow's allocation from the rate caches.
  void remove_active_at(std::size_t slot);

  /// Debug-only: verifies the cached per-node aggregates against a fresh
  /// rescan of the active set. Compiles to nothing under NDEBUG.
  void assert_rate_caches() const;

  std::vector<Node> nodes_;
  std::vector<Flow> flows_;
  /// Ids of currently active flows. Long probes accumulate tens of
  /// thousands of completed flow records; every per-step scan must touch
  /// only the live ones or week-long simulations go quadratic.
  std::vector<FlowId> active_ids_;
  /// Position of each flow in `active_ids_` (`kNoSlot` when inactive), so
  /// removal never scans the live set — all-to-all shuffles and `fail_node`
  /// deactivate flows constantly.
  std::vector<std::size_t> active_slot_;
  /// Per-node aggregate rates under the current allocation, rebuilt by
  /// `allocate_rates` and decremented on flow removal, making
  /// `node_egress_rate`/`node_ingress_rate` O(1) instead of O(active
  /// flows) — they are called per node per event step.
  std::vector<double> egress_rate_;
  std::vector<double> ingress_rate_;
  /// Scratch for `allocate_rates` and `step_once`, kept across steps so a
  /// step allocates nothing: capacity left and unfrozen-flow count per node,
  /// the unfrozen flow ids, and the active slots a step completed.
  std::vector<double> egress_left_;
  std::vector<double> ingress_left_;
  std::vector<std::size_t> egress_users_;
  std::vector<std::size_t> ingress_users_;
  std::vector<FlowId> unfrozen_;
  std::vector<std::size_t> completed_slots_;
  double now_ = 0.0;
  StepObserver observer_;

  /// Context handed to a node's token-bucket transition hook; heap-allocated
  /// so the pointer survives `nodes_` reallocation.
  struct BucketHookCtx {
    FluidNetwork* net = nullptr;
    NodeId node = 0;
  };
  static void bucket_transition_hook(void* ctx, bool to_low, double budget_gbit);
  void install_bucket_hook(NodeId id);

  obs::Tracer* tracer_ = nullptr;
  obs::Counter* c_allocations_ = nullptr;
  obs::Counter* c_steps_ = nullptr;
  obs::Counter* c_flows_started_ = nullptr;
  obs::Counter* c_flows_completed_ = nullptr;
  /// Timestamp bucket transitions resolve to: QoS advances run before `now_`
  /// moves, but the event-driven step length lands transitions exactly on
  /// the step's end boundary.
  double step_end_ = 0.0;
  std::vector<std::unique_ptr<BucketHookCtx>> bucket_hooks_;
};

}  // namespace cloudrepro::simnet
