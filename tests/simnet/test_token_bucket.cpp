#include "simnet/token_bucket.h"

#include <gtest/gtest.h>

#include <cmath>

#include "simnet/units.h"

namespace cloudrepro::simnet {
namespace {

TokenBucketConfig c5_xlarge_like() {
  TokenBucketConfig cfg;
  cfg.capacity_gbit = 5400.0;
  cfg.initial_gbit = 5400.0;
  cfg.high_rate_gbps = 10.0;
  cfg.low_rate_gbps = 1.0;
  cfg.replenish_gbps = 1.0;
  cfg.recover_threshold_gbit = 5.0;
  return cfg;
}

TEST(TokenBucketTest, StartsAtHighRateWithFullBudget) {
  TokenBucket tb{c5_xlarge_like()};
  EXPECT_DOUBLE_EQ(tb.allowed_rate(), 10.0);
  EXPECT_DOUBLE_EQ(tb.budget(), 5400.0);
  EXPECT_FALSE(tb.in_low_mode());
}

TEST(TokenBucketTest, DrainsAtNetRate) {
  TokenBucket tb{c5_xlarge_like()};
  tb.advance(100.0, 10.0);  // Net drain 9 Gbit/s.
  EXPECT_NEAR(tb.budget(), 5400.0 - 900.0, 1e-9);
}

TEST(TokenBucketTest, TimeToEmptyMatchesPaperScale) {
  // c5.xlarge: ~10 minutes of full-speed transfer empties the bucket.
  TokenBucket tb{c5_xlarge_like()};
  const double tte = tb.time_until_change(10.0);
  EXPECT_NEAR(tte, 600.0, 1e-9);
}

TEST(TokenBucketTest, DepletionDropsToLowRate) {
  TokenBucket tb{c5_xlarge_like()};
  tb.advance(600.0, 10.0);
  EXPECT_TRUE(tb.in_low_mode());
  EXPECT_DOUBLE_EQ(tb.allowed_rate(), 1.0);
  EXPECT_DOUBLE_EQ(tb.budget(), 0.0);
}

TEST(TokenBucketTest, CappedRateSendingKeepsBucketEmpty) {
  // The paper: "once the token bucket empties, transmission at the capped
  // rate is sufficient to keep it from filling back up".
  TokenBucket tb{c5_xlarge_like()};
  tb.advance(600.0, 10.0);
  ASSERT_TRUE(tb.in_low_mode());
  tb.advance(1000.0, 1.0);  // Send at the low rate == replenish rate.
  EXPECT_TRUE(tb.in_low_mode());
  EXPECT_DOUBLE_EQ(tb.budget(), 0.0);
}

TEST(TokenBucketTest, RestingRefills) {
  TokenBucket tb{c5_xlarge_like()};
  tb.advance(600.0, 10.0);
  ASSERT_TRUE(tb.in_low_mode());
  tb.advance(30.0, 0.0);  // Rest 30 s -> +30 Gbit.
  EXPECT_NEAR(tb.budget(), 30.0, 1e-9);
  EXPECT_FALSE(tb.in_low_mode());  // Past the 5-Gbit recovery threshold.
  EXPECT_DOUBLE_EQ(tb.allowed_rate(), 10.0);
}

TEST(TokenBucketTest, HysteresisPreventsInstantFlapping) {
  auto cfg = c5_xlarge_like();
  cfg.recover_threshold_gbit = 5.0;
  TokenBucket tb{cfg};
  tb.advance(600.0, 10.0);
  ASSERT_TRUE(tb.in_low_mode());
  tb.advance(2.0, 0.0);  // +2 Gbit < threshold: still low.
  EXPECT_TRUE(tb.in_low_mode());
  tb.advance(3.0, 0.0);  // Now at 5 Gbit: recovers.
  EXPECT_FALSE(tb.in_low_mode());
}

TEST(TokenBucketTest, TimeUntilRecoveryWhileResting) {
  TokenBucket tb{c5_xlarge_like()};
  tb.advance(600.0, 10.0);
  ASSERT_TRUE(tb.in_low_mode());
  EXPECT_NEAR(tb.time_until_change(0.0), 5.0, 1e-9);  // 5 Gbit at 1 Gbit/s.
}

TEST(TokenBucketTest, StableStatesReportInfiniteHorizon) {
  TokenBucket tb{c5_xlarge_like()};
  // Sending below replenish in high mode: budget grows (capped) -> stable.
  EXPECT_TRUE(std::isinf(tb.time_until_change(0.5)));
  tb.advance(600.0, 10.0);
  // Low mode, sending at replenish rate: stable.
  EXPECT_TRUE(std::isinf(tb.time_until_change(1.0)));
}

TEST(TokenBucketTest, BudgetNeverExceedsCapacity) {
  auto cfg = c5_xlarge_like();
  cfg.initial_gbit = 5000.0;
  TokenBucket tb{cfg};
  tb.advance(100000.0, 0.0);
  EXPECT_DOUBLE_EQ(tb.budget(), cfg.capacity_gbit);
}

TEST(TokenBucketTest, SendRateClampedToAllowed) {
  TokenBucket tb{c5_xlarge_like()};
  tb.advance(600.0, 10.0);
  ASSERT_TRUE(tb.in_low_mode());
  // Claiming to send at 10 in low mode is clamped to 1 == replenish.
  tb.advance(100.0, 10.0);
  EXPECT_DOUBLE_EQ(tb.budget(), 0.0);
}

TEST(TokenBucketTest, FullRefillTime) {
  TokenBucket tb{c5_xlarge_like()};
  tb.advance(600.0, 10.0);
  EXPECT_NEAR(tb.time_to_full_refill(), 5400.0, 1e-6);
}

TEST(TokenBucketTest, ResetRestoresInitialState) {
  TokenBucket tb{c5_xlarge_like()};
  tb.advance(600.0, 10.0);
  tb.reset();
  EXPECT_DOUBLE_EQ(tb.budget(), 5400.0);
  EXPECT_FALSE(tb.in_low_mode());
}

TEST(TokenBucketTest, SetBudgetModelsUsedVm) {
  TokenBucket tb{c5_xlarge_like()};
  tb.set_budget(100.0);
  EXPECT_DOUBLE_EQ(tb.budget(), 100.0);
  EXPECT_FALSE(tb.in_low_mode());
  tb.set_budget(0.0);
  EXPECT_TRUE(tb.in_low_mode());
}

TEST(TokenBucketTest, SetBudgetClampsToCapacity) {
  TokenBucket tb{c5_xlarge_like()};
  tb.set_budget(99999.0);
  EXPECT_DOUBLE_EQ(tb.budget(), 5400.0);
  tb.set_budget(-5.0);
  EXPECT_DOUBLE_EQ(tb.budget(), 0.0);
}

TEST(TokenBucketTest, ZeroInitialBudgetStartsLow) {
  auto cfg = c5_xlarge_like();
  cfg.initial_gbit = 0.0;
  TokenBucket tb{cfg};
  EXPECT_TRUE(tb.in_low_mode());
  EXPECT_DOUBLE_EQ(tb.allowed_rate(), 1.0);
}

TEST(TokenBucketTest, ConfigValidation) {
  auto cfg = c5_xlarge_like();
  cfg.initial_gbit = cfg.capacity_gbit + 1.0;
  EXPECT_THROW(TokenBucket{cfg}, std::invalid_argument);

  cfg = c5_xlarge_like();
  cfg.low_rate_gbps = 20.0;
  EXPECT_THROW(TokenBucket{cfg}, std::invalid_argument);

  cfg = c5_xlarge_like();
  cfg.high_rate_gbps = 0.0;
  EXPECT_THROW(TokenBucket{cfg}, std::invalid_argument);

  cfg = c5_xlarge_like();
  cfg.replenish_gbps = -1.0;
  EXPECT_THROW(TokenBucket{cfg}, std::invalid_argument);

  cfg = c5_xlarge_like();
  cfg.recover_threshold_gbit = cfg.capacity_gbit + 1.0;
  EXPECT_THROW(TokenBucket{cfg}, std::invalid_argument);

  cfg = c5_xlarge_like();
  cfg.capacity_gbit = -1.0;
  cfg.initial_gbit = -1.0;
  EXPECT_THROW(TokenBucket{cfg}, std::invalid_argument);
}

TEST(TokenBucketTest, AdvanceIgnoresNonPositiveDt) {
  TokenBucket tb{c5_xlarge_like()};
  tb.advance(0.0, 10.0);
  tb.advance(-5.0, 10.0);
  EXPECT_DOUBLE_EQ(tb.budget(), 5400.0);
}

// ---- Conservation property: over any drain/rest schedule, the budget
// change equals replenish*time - sent (within clamping).
class BucketConservationTest : public ::testing::TestWithParam<double> {};

TEST_P(BucketConservationTest, BudgetAccountingIsExact) {
  auto cfg = c5_xlarge_like();
  cfg.initial_gbit = 2000.0;
  TokenBucket tb{cfg};
  const double rate = GetParam();
  double sent = 0.0;
  double elapsed = 0.0;
  // Alternate short sends and rests; stay away from the clamp boundaries.
  for (int i = 0; i < 50; ++i) {
    const double r = std::min(rate, tb.allowed_rate());
    tb.advance(1.0, r);
    sent += r;
    elapsed += 1.0;
    tb.advance(0.5, 0.0);
    elapsed += 0.5;
  }
  const double expected = 2000.0 - sent + cfg.replenish_gbps * elapsed;
  if (expected >= 0.0 && expected <= cfg.capacity_gbit) {
    EXPECT_NEAR(tb.budget(), expected, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, BucketConservationTest,
                         ::testing::Values(2.0, 5.0, 8.0, 10.0));

TEST(TokenBucketTest, ReplenishAtOrAboveHighRateNeverDepletes) {
  // A bucket refilling as fast as (or faster than) the shaper can drain it
  // is effectively unshaped: no transmission pattern reaches low mode.
  auto cfg = c5_xlarge_like();
  cfg.initial_gbit = 1.0;  // Nearly empty, so depletion would be easy.
  cfg.replenish_gbps = cfg.high_rate_gbps;
  TokenBucket tb{cfg};
  for (int i = 0; i < 1000; ++i) {
    tb.advance(1.0, cfg.high_rate_gbps);
    ASSERT_FALSE(tb.in_low_mode()) << "at step " << i;
  }
  EXPECT_DOUBLE_EQ(tb.time_until_change(cfg.high_rate_gbps), kInfiniteTime);

  cfg.replenish_gbps = cfg.high_rate_gbps + 1.0;
  TokenBucket faster{cfg};
  faster.advance(100.0, cfg.high_rate_gbps);
  EXPECT_FALSE(faster.in_low_mode());
  EXPECT_DOUBLE_EQ(faster.budget(), 1.0 + 100.0);  // Net +1 Gbit/s.
}

TEST(TokenBucketTest, SubTickBurstsAccumulateExactly) {
  // Many tiny advances must drain exactly what one long advance does: the
  // bucket is a pure integrator with no per-call quantization.
  auto cfg = c5_xlarge_like();
  cfg.initial_gbit = 100.0;
  TokenBucket many{cfg};
  TokenBucket one{cfg};
  constexpr int kTicks = 100000;
  constexpr double kDt = 1e-4;
  for (int i = 0; i < kTicks; ++i) many.advance(kDt, 10.0);
  one.advance(kTicks * kDt, 10.0);
  EXPECT_NEAR(many.budget(), one.budget(), 1e-6);
  EXPECT_EQ(many.in_low_mode(), one.in_low_mode());
}

TEST(TokenBucketTest, SubTickBurstCrossingDepletionFlipsOnce) {
  auto cfg = c5_xlarge_like();
  cfg.initial_gbit = 0.01;  // Depletes within ~1.1ms at net 9 Gbit/s.
  TokenBucket tb{cfg};
  int transitions = 0;
  tb.set_transition_hook(
      [](void* ctx, bool to_low, double) {
        if (to_low) ++*static_cast<int*>(ctx);
      },
      &transitions);
  for (int i = 0; i < 100; ++i) tb.advance(1e-4, 10.0);
  EXPECT_TRUE(tb.in_low_mode());
  EXPECT_EQ(transitions, 1);
}

TEST(TokenBucketTest, TransitionHookFiresOnBothEdges) {
  auto cfg = c5_xlarge_like();
  cfg.initial_gbit = 9.0;
  TokenBucket tb{cfg};
  struct Log {
    int to_low = 0;
    int to_high = 0;
    double last_budget = -1.0;
  } log;
  tb.set_transition_hook(
      [](void* ctx, bool to_low, double budget) {
        auto* l = static_cast<Log*>(ctx);
        (to_low ? l->to_low : l->to_high) += 1;
        l->last_budget = budget;
      },
      &log);
  tb.advance(1.0, 10.0);  // 9 - 9 = 0: depleted.
  tb.advance(5.0, 0.0);   // Refill to 5 = recover threshold: recovered.
  EXPECT_EQ(log.to_low, 1);
  EXPECT_EQ(log.to_high, 1);
  EXPECT_DOUBLE_EQ(log.last_budget, 5.0);
  EXPECT_FALSE(tb.in_low_mode());
}

TEST(TokenBucketTest, CopiesNeverInheritTheTransitionHook) {
  // Buckets are cloned between the cluster and per-job networks; a copied
  // hook would dangle once the originating observer dies.
  auto cfg = c5_xlarge_like();
  cfg.initial_gbit = 9.0;
  TokenBucket original{cfg};
  int fired = 0;
  original.set_transition_hook(
      [](void* ctx, bool, double) { ++*static_cast<int*>(ctx); }, &fired);

  TokenBucket copy{original};
  copy.advance(1.0, 10.0);  // Depletes the copy.
  EXPECT_TRUE(copy.in_low_mode());
  EXPECT_EQ(fired, 0);  // Only the original's transitions may fire the hook.

  TokenBucket assigned{c5_xlarge_like()};
  assigned = original;
  assigned.advance(1.0, 10.0);
  EXPECT_TRUE(assigned.in_low_mode());
  EXPECT_EQ(fired, 0);
}

}  // namespace
}  // namespace cloudrepro::simnet
