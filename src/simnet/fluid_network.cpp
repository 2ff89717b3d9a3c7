#include "simnet/fluid_network.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cloudrepro::simnet {

namespace {
constexpr double kTimeEpsilon = 1e-9;
constexpr double kBytesEpsilon = 1e-12;
constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
}  // namespace

NodeId FluidNetwork::add_node(std::unique_ptr<QosPolicy> egress, double ingress_cap_gbps) {
  if (!egress) throw std::invalid_argument{"FluidNetwork::add_node: null egress policy"};
  if (ingress_cap_gbps <= 0.0) {
    throw std::invalid_argument{"FluidNetwork::add_node: ingress cap must be positive"};
  }
  nodes_.push_back(Node{std::move(egress), ingress_cap_gbps});
  egress_rate_.push_back(0.0);
  ingress_rate_.push_back(0.0);
  if (tracer_) install_bucket_hook(nodes_.size() - 1);
  return nodes_.size() - 1;
}

void FluidNetwork::set_observability(obs::Tracer* tracer,
                                     obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  if (metrics) {
    c_allocations_ = &metrics->counter("simnet.allocations");
    c_steps_ = &metrics->counter("simnet.steps");
    c_flows_started_ = &metrics->counter("simnet.flows_started");
    c_flows_completed_ = &metrics->counter("simnet.flows_completed");
  } else {
    c_allocations_ = c_steps_ = c_flows_started_ = c_flows_completed_ = nullptr;
  }
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    install_bucket_hook(id);
  }
}

void FluidNetwork::install_bucket_hook(NodeId id) {
  auto* tb = dynamic_cast<TokenBucketQos*>(nodes_[id].egress.get());
  if (!tb) return;
  if (!tracer_) {
    tb->bucket().set_transition_hook(nullptr, nullptr);
    return;
  }
  bucket_hooks_.push_back(std::make_unique<BucketHookCtx>(BucketHookCtx{this, id}));
  tb->bucket().set_transition_hook(&FluidNetwork::bucket_transition_hook,
                                   bucket_hooks_.back().get());
}

void FluidNetwork::bucket_transition_hook(void* ctx, bool to_low,
                                          double budget_gbit) {
  const auto* c = static_cast<BucketHookCtx*>(ctx);
  FluidNetwork* net = c->net;
  if (!net->tracer_) return;
  net->tracer_->instant(net->step_end_, "simnet",
                        to_low ? "bucket_depleted" : "bucket_recovered",
                        {"node", static_cast<double>(c->node)},
                        {"budget_gbit", budget_gbit},
                        static_cast<std::uint32_t>(c->node), 1);
}

FlowId FluidNetwork::start_flow(NodeId src, NodeId dst, double gbit) {
  if (src >= nodes_.size() || dst >= nodes_.size()) {
    throw std::out_of_range{"FluidNetwork::start_flow: unknown node"};
  }
  if (nodes_[src].failed || nodes_[dst].failed) {
    throw std::invalid_argument{"FluidNetwork::start_flow: node has failed"};
  }
  if (src == dst) {
    throw std::invalid_argument{"FluidNetwork::start_flow: src == dst (local I/O is not shaped)"};
  }
  if (gbit <= 0.0) throw std::invalid_argument{"FluidNetwork::start_flow: size must be positive"};
  Flow f;
  f.src = src;
  f.dst = dst;
  f.remaining_gbit = gbit;
  f.active = true;
  f.start_time = now_;
  flows_.push_back(f);
  active_slot_.push_back(active_ids_.size());
  active_ids_.push_back(flows_.size() - 1);
  if (c_flows_started_) c_flows_started_->add();
  if (tracer_) {
    tracer_->instant(now_, "simnet", "flow_start",
                     {"flow", static_cast<double>(flows_.size() - 1)},
                     {"gbit", gbit}, static_cast<std::uint32_t>(src), 1);
  }
  return flows_.size() - 1;
}

void FluidNetwork::reserve_flows(std::size_t n) {
  flows_.reserve(n);
  active_slot_.reserve(n);
}

void FluidNetwork::stop_flow(FlowId id) {
  Flow& f = flows_.at(id);
  if (!f.active) return;
  deactivate(id);  // Subtracts the still-current allocation from the caches.
  f.active = false;
  f.end_time = now_;
  f.rate_gbps = 0.0;
}

void FluidNetwork::deactivate(FlowId id) {
  const std::size_t slot = active_slot_[id];
  if (slot == kNoSlot) return;
  remove_active_at(slot);
}

void FluidNetwork::remove_active_at(std::size_t slot) {
  const FlowId id = active_ids_[slot];
  const Flow& f = flows_[id];
  // Every deactivation path (completion, stop_flow, fail_node) funnels
  // through here, so this is the single flow-end observation point.
  if (c_flows_completed_) c_flows_completed_->add();
  if (tracer_) {
    tracer_->instant(now_, "simnet", "flow_end",
                     {"flow", static_cast<double>(id)},
                     {"transferred_gbit", f.transferred_gbit},
                     static_cast<std::uint32_t>(f.src), 1);
  }
  egress_rate_[f.src] -= f.rate_gbps;
  ingress_rate_[f.dst] -= f.rate_gbps;
  active_slot_[id] = kNoSlot;
  active_ids_[slot] = active_ids_.back();
  active_ids_.pop_back();
  if (slot < active_ids_.size()) active_slot_[active_ids_[slot]] = slot;
}

void FluidNetwork::assert_rate_caches() const {
#ifndef NDEBUG
  std::vector<double> egress(nodes_.size(), 0.0);
  std::vector<double> ingress(nodes_.size(), 0.0);
  for (const FlowId fid : active_ids_) {
    const Flow& f = flows_[fid];
    egress[f.src] += f.rate_gbps;
    ingress[f.dst] += f.rate_gbps;
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    // Tolerance: decremental updates between allocations reassociate the
    // floating-point sum, so exact equality only holds right after
    // allocate_rates.
    const double tol = 1e-9 * std::max(1.0, std::fabs(egress[i]) + std::fabs(ingress[i]));
    assert(std::fabs(egress_rate_[i] - egress[i]) <= tol &&
           "FluidNetwork: cached egress rate diverged from active set");
    assert(std::fabs(ingress_rate_[i] - ingress[i]) <= tol &&
           "FluidNetwork: cached ingress rate diverged from active set");
  }
#endif
}

std::size_t FluidNetwork::active_flow_count() const noexcept {
  return active_ids_.size();
}

void FluidNetwork::set_node_rate_factor(NodeId id, double factor) {
  if (factor <= 0.0 || factor > 1.0) {
    throw std::invalid_argument{
        "FluidNetwork::set_node_rate_factor: factor must be in (0, 1]"};
  }
  nodes_.at(id).rate_factor = factor;
}

void FluidNetwork::set_node_loss(NodeId id, double loss) {
  if (loss < 0.0 || loss >= 1.0) {
    throw std::invalid_argument{
        "FluidNetwork::set_node_loss: loss must be in [0, 1)"};
  }
  nodes_.at(id).loss_fraction = loss;
}

void FluidNetwork::fail_node(NodeId id) {
  Node& node = nodes_.at(id);
  if (node.failed) return;
  node.failed = true;
  // Reverse order so a swap-erase only moves an already-examined id.
  for (std::size_t i = active_ids_.size(); i-- > 0;) {
    const FlowId fid = active_ids_[i];
    Flow& f = flows_[fid];
    if (f.src == id || f.dst == id) {
      remove_active_at(i);
      f.active = false;
      f.end_time = now_;
      f.rate_gbps = 0.0;
    }
  }
}

double FluidNetwork::node_allowed_rate(NodeId id) const {
  const Node& node = nodes_.at(id);
  if (node.failed) return 0.0;
  return node.egress->allowed_rate() * node.rate_factor;
}

double FluidNetwork::node_egress_rate(NodeId id) const {
  assert_rate_caches();
  return egress_rate_.at(id);
}

double FluidNetwork::node_ingress_rate(NodeId id) const {
  assert_rate_caches();
  return ingress_rate_.at(id);
}

double FluidNetwork::allocate_rates() {
  // Progressive filling: raise all unfrozen flow rates in lockstep; freeze
  // the flows crossing each constraint as it saturates.
  const std::size_t n_nodes = nodes_.size();
  egress_left_.resize(n_nodes);
  ingress_left_.resize(n_nodes);
  egress_users_.assign(n_nodes, 0);
  ingress_users_.assign(n_nodes, 0);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    egress_left_[i] = nodes_[i].egress->allowed_rate() * nodes_[i].rate_factor;
    ingress_left_[i] = nodes_[i].ingress_cap_gbps * nodes_[i].rate_factor;
  }
  unfrozen_.assign(active_ids_.begin(), active_ids_.end());
  for (const FlowId id : active_ids_) {
    ++egress_users_[flows_[id].src];
    ++ingress_users_[flows_[id].dst];
  }

  // Every unfrozen flow's rate is 0 plus the same deltas in the same order,
  // so one running `level` holds it bit for bit; a flow's rate is written
  // once, as the level at which it freezes.
  double level = 0.0;
  while (!unfrozen_.empty()) {
    double delta = kInfiniteBytes;
    for (std::size_t i = 0; i < n_nodes; ++i) {
      if (egress_users_[i] > 0 && std::isfinite(egress_left_[i])) {
        delta = std::min(delta, egress_left_[i] / static_cast<double>(egress_users_[i]));
      }
      if (ingress_users_[i] > 0 && std::isfinite(ingress_left_[i])) {
        delta = std::min(delta, ingress_left_[i] / static_cast<double>(ingress_users_[i]));
      }
    }
    if (!std::isfinite(delta)) {
      // No finite constraint applies — should not happen because every node
      // has an egress policy; guard against a runaway loop regardless.
      throw std::runtime_error{"FluidNetwork::allocate_rates: unconstrained flow set"};
    }

    level += delta;
    for (std::size_t i = 0; i < n_nodes; ++i) {
      egress_left_[i] -= delta * static_cast<double>(egress_users_[i]);
      ingress_left_[i] -= delta * static_cast<double>(ingress_users_[i]);
    }

    // Freezing a flow drops it from its nodes' user counts, which leaves
    // them equal to a recount over the flows still unfrozen.
    std::size_t kept = 0;
    for (const FlowId id : unfrozen_) {
      Flow& f = flows_[id];
      if (egress_left_[f.src] <= kBytesEpsilon || ingress_left_[f.dst] <= kBytesEpsilon) {
        f.rate_gbps = level;
        --egress_users_[f.src];
        --ingress_users_[f.dst];
      } else {
        unfrozen_[kept++] = id;
      }
    }
    if (kept == unfrozen_.size()) {
      // Numerical stall: no constraint reached kBytesEpsilon, so nothing
      // froze this round. Freeze every remaining flow at the current level.
      break;
    }
    unfrozen_.resize(kept);
  }
  for (const FlowId id : unfrozen_) flows_[id].rate_gbps = level;

  // Rebuild the per-node aggregate caches and find the first finite-flow
  // completion. The sums run in active_ids_ order on purpose: floating-point
  // addition does not associate, and every QoS advance and timeline sample
  // reads these sums, so another order would move the last bits of the
  // simulated runtimes.
  std::fill(egress_rate_.begin(), egress_rate_.end(), 0.0);
  std::fill(ingress_rate_.begin(), ingress_rate_.end(), 0.0);
  double first_completion = kInfiniteBytes;
  for (const FlowId id : active_ids_) {
    const Flow& f = flows_[id];
    egress_rate_[f.src] += f.rate_gbps;
    ingress_rate_[f.dst] += f.rate_gbps;
    // Only goodput completes the flow: under a loss burst a fraction of the
    // wire rate is retransmitted bytes that make no forward progress.
    const double goodput = f.rate_gbps * (1.0 - nodes_[f.src].loss_fraction);
    if (std::isfinite(f.remaining_gbit) && goodput > 0.0) {
      first_completion = std::min(first_completion, f.remaining_gbit / goodput);
    }
  }

  if (c_allocations_) c_allocations_->add();
  if (tracer_) {
    tracer_->instant(now_, "simnet", "reallocate",
                     {"active_flows", static_cast<double>(active_ids_.size())},
                     {}, 0, 1);
  }
  return first_completion;
}

void FluidNetwork::step_once(double t_bound) {
  const double first_completion = allocate_rates();
  double dt = std::min(t_bound - now_, first_completion);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    dt = std::min(dt, nodes_[i].egress->time_until_change(node_egress_rate(i)));
  }
  dt = std::max(dt, kTimeEpsilon);
  step_end_ = now_ + dt;
  if (c_steps_) c_steps_->add();

  // Advance QoS state with the realized per-node *wire* rates (retransmitted
  // bytes drain the token budget like any others), then move the data.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].egress->advance(dt, node_egress_rate(i));
  }
  completed_slots_.clear();
  for (std::size_t slot = 0; slot < active_ids_.size(); ++slot) {
    Flow& f = flows_[active_ids_[slot]];
    const double loss = nodes_[f.src].loss_fraction;
    const double moved = f.rate_gbps * (1.0 - loss) * dt;
    nodes_[f.src].retransmitted_gbit += f.rate_gbps * loss * dt;
    f.transferred_gbit += moved;
    if (std::isfinite(f.remaining_gbit)) {
      f.remaining_gbit -= moved;
      if (f.remaining_gbit <= kBytesEpsilon) completed_slots_.push_back(slot);
    }
  }
  now_ += dt;

  if (observer_) observer_(*this, now_, dt);

  // Descending slot order: a swap-erase only moves the last id, which sits
  // above every slot still to go, so each removal hits the flow it noted.
  // The rate caches are decremented in that same order.
  for (auto it = completed_slots_.rbegin(); it != completed_slots_.rend(); ++it) {
    Flow& f = flows_[active_ids_[*it]];
    remove_active_at(*it);
    f.remaining_gbit = 0.0;
    f.active = false;
    f.end_time = now_;
    f.rate_gbps = 0.0;
  }
}

void FluidNetwork::run_until(double t_end) {
  while (now_ < t_end - kTimeEpsilon) {
    step_once(t_end);
  }
  now_ = t_end;
}

bool FluidNetwork::run_until_flows_complete(double deadline) {
  const auto finite_flows_pending = [this] {
    for (const FlowId fid : active_ids_) {
      if (std::isfinite(flows_[fid].remaining_gbit)) return true;
    }
    return false;
  };
  // Event-exact stepping: time stops advancing the moment the last finite
  // flow completes (a stage barrier must not inherit dead time).
  while (finite_flows_pending() && now_ < deadline - kTimeEpsilon) {
    step_once(deadline);
  }
  return !finite_flows_pending();
}

}  // namespace cloudrepro::simnet
