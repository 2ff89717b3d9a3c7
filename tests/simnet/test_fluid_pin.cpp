// Pins the fluid simulator's output bits across commits on heterogeneous
// topologies. The catalog pin (tests/scenario/test_catalog_pin.cpp) runs
// symmetric shuffles, where one filling round usually freezes every flow of
// a node at one rate. These runs mix unequal egress and ingress caps, token
// buckets, a loss burst and a stopped open-ended flow, so progressive
// filling takes several rounds, most flows finish at different times and
// the per-node rate sums add unequal terms.
//
// Regenerating: a deliberate behaviour change puts the actual digests this
// test prints on failure into kPinned.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>

#include "simnet/fluid_network.h"
#include "simnet/qos.h"
#include "simnet/token_bucket.h"
#include "stats/rng.h"

namespace cloudrepro::simnet {
namespace {

/// FNV-1a over the bit patterns of the doubles added.
class BitDigest {
 public:
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (bits >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Digest of every step the observer sees (time, length, per-node rate
/// caches) and of every flow's and node's final state.
std::uint64_t run_digest(std::uint64_t seed) {
  stats::Rng rng{seed};
  FluidNetwork net;
  const auto n_nodes = static_cast<std::size_t>(rng.uniform_int(4, 10));
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const double ingress_cap = rng.uniform(2.0, 25.0);
    if (i % 3 == 0) {
      TokenBucketConfig bucket;
      bucket.capacity_gbit = rng.uniform(50.0, 400.0);
      bucket.initial_gbit = rng.uniform(0.0, bucket.capacity_gbit);
      bucket.replenish_gbps = 0.5;
      net.add_node(std::make_unique<TokenBucketQos>(bucket), ingress_cap);
    } else {
      net.add_node(std::make_unique<FixedRateQos>(rng.uniform(1.0, 20.0)), ingress_cap);
    }
  }
  const auto random_pair = [&] {
    const auto src = static_cast<std::size_t>(rng.uniform_int(0, n_nodes - 1));
    const auto hop = static_cast<std::size_t>(rng.uniform_int(1, n_nodes - 1));
    return std::pair{src, (src + hop) % n_nodes};
  };
  const auto n_flows = rng.uniform_int(8, 40);
  for (std::int64_t f = 0; f < n_flows; ++f) {
    const auto [src, dst] = random_pair();
    net.start_flow(src, dst, rng.uniform(1.0, 200.0));
  }
  // Equal flows fanning out of one node tend to finish in the same step,
  // so one step removes several slots.
  const auto fan_src = static_cast<std::size_t>(rng.uniform_int(0, n_nodes - 1));
  for (std::size_t k = 1; k <= 3; ++k) {
    net.start_flow(fan_src, (fan_src + k) % n_nodes, 30.0);
  }
  const auto [open_src, open_dst] = random_pair();
  const FlowId open = net.start_flow(open_src, open_dst);
  net.set_node_loss(1, 0.05);

  BitDigest digest;
  net.set_step_observer([&](const FluidNetwork& n, double t, double dt) {
    digest.add(t);
    digest.add(dt);
    for (std::size_t i = 0; i < n.node_count(); ++i) {
      digest.add(n.node_egress_rate(i));
      digest.add(n.node_ingress_rate(i));
    }
  });
  net.run_until(3.0);
  net.stop_flow(open);
  const auto [src, dst] = random_pair();
  net.start_flow(src, dst, 50.0);
  EXPECT_TRUE(net.run_until_flows_complete(1e6)) << "seed " << seed;

  for (FlowId id = 0; id < net.flow_count(); ++id) {
    const Flow& f = net.flow(id);
    digest.add(f.start_time);
    digest.add(f.end_time);
    digest.add(f.transferred_gbit);
    digest.add(f.remaining_gbit);
  }
  for (std::size_t i = 0; i < n_nodes; ++i) {
    digest.add(net.node_retransmitted_gbit(i));
    digest.add(net.node_qos(i).budget_gbit().value_or(-1.0));
  }
  digest.add(net.now());
  return digest.value();
}

struct PinnedRun {
  std::uint64_t seed;
  std::uint64_t digest;
};

constexpr PinnedRun kPinned[] = {
    {1, 0xf47d4b4731f909a0ULL},
    {2, 0x0036949300f38c3fULL},
    {3, 0xd39760cfecc9b94aULL},
    {4, 0x4c40dc7e92afba42ULL},
    {5, 0xaea1cb1edea6d27aULL},
    {6, 0xd9c7ae246a4fa577ULL},
    {7, 0xe39be699681049c0ULL},
    {8, 0x8dbfa872306e7736ULL},
    {9, 0xb1a6d4dfc724684aULL},
    {10, 0x4612c146a0963f21ULL},
    {11, 0x4274ff07605c911bULL},
    {12, 0xafe573b53e28fe47ULL},
};

TEST(FluidBitPin, HeterogeneousRunsKeepTheirBits) {
  for (const PinnedRun& pin : kPinned) {
    const std::uint64_t actual = run_digest(pin.seed);
    EXPECT_EQ(actual, pin.digest)
        << "seed " << pin.seed << ": simulator output bits changed; actual digest 0x"
        << std::hex << actual << std::dec
        << ". If the change is intentional, put it in kPinned "
           "(tests/simnet/test_fluid_pin.cpp).";
  }
}

}  // namespace
}  // namespace cloudrepro::simnet
