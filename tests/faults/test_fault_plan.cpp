#include "faults/fault_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "faults/injector.h"
#include "stats/rng.h"

namespace cloudrepro::faults {
namespace {

TEST(FaultPlanTest, BuildersProduceSortedSchedule) {
  FaultPlan plan;
  plan.crash(300.0, 2)
      .slow_down(10.0, 0, 60.0, 0.5)
      .steal_tokens(150.0, 1, 400.0)
      .flap_link(10.0, 3, 5.0, 0.1);

  ASSERT_EQ(plan.size(), 4u);
  const auto& ev = plan.events();
  EXPECT_DOUBLE_EQ(ev[0].at_s, 10.0);
  EXPECT_EQ(ev[0].kind, FaultKind::kTransientSlowdown);
  // Ties keep insertion order (stable): the slowdown was added before the flap.
  EXPECT_DOUBLE_EQ(ev[1].at_s, 10.0);
  EXPECT_EQ(ev[1].kind, FaultKind::kLinkFlap);
  EXPECT_EQ(ev[2].kind, FaultKind::kTokenTheft);
  EXPECT_EQ(ev[3].kind, FaultKind::kNodeCrash);
}

TEST(FaultPlanTest, ValidationRejectsBadEvents) {
  FaultPlan plan;
  EXPECT_THROW(plan.crash(-1.0, 0), std::invalid_argument);
  EXPECT_THROW(plan.slow_down(0.0, 0, -5.0, 0.5), std::invalid_argument);
  EXPECT_THROW(plan.slow_down(0.0, 0, 5.0, 0.0), std::invalid_argument);
  EXPECT_THROW(plan.slow_down(0.0, 0, 5.0, 1.5), std::invalid_argument);
  EXPECT_THROW(plan.flap_link(0.0, 0, 5.0, 1.0), std::invalid_argument);
  EXPECT_THROW(plan.flap_link(0.0, 0, 5.0, -0.1), std::invalid_argument);
  EXPECT_THROW(plan.steal_tokens(0.0, 0, -1.0), std::invalid_argument);
  EXPECT_TRUE(plan.empty());
}

TEST(FaultPlanTest, EventsForNodeFiltersAndKeepsOrder) {
  FaultPlan plan;
  plan.crash(100.0, 1).slow_down(5.0, 1, 10.0, 0.5).steal_tokens(50.0, 0, 10.0);
  const auto node1 = plan.events_for_node(1);
  ASSERT_EQ(node1.size(), 2u);
  EXPECT_EQ(node1[0].kind, FaultKind::kTransientSlowdown);
  EXPECT_EQ(node1[1].kind, FaultKind::kNodeCrash);
  EXPECT_TRUE(plan.events_for_node(7).empty());
}

TEST(FaultPlanTest, DescribeMentionsEveryEvent) {
  FaultPlan plan;
  plan.crash(100.0, 1).revoke(30.0, 2, 120.0);
  const auto text = plan.describe();
  EXPECT_NE(text.find("crash"), std::string::npos);
  EXPECT_NE(text.find("revocation"), std::string::npos);
}

TEST(FaultPlanTest, SampleIsDeterministicPerSeed) {
  FaultPlanConfig cfg;
  cfg.horizon_s = 7200.0;
  cfg.crash_rate_per_hour = 0.5;
  cfg.slowdown_rate_per_hour = 2.0;
  cfg.flap_rate_per_hour = 1.0;
  cfg.theft_rate_per_hour = 3.0;
  cfg.revocation_rate_per_hour = 0.25;

  stats::Rng rng_a{42};
  stats::Rng rng_b{42};
  const auto plan_a = FaultPlan::sample(cfg, 8, rng_a);
  const auto plan_b = FaultPlan::sample(cfg, 8, rng_b);
  ASSERT_EQ(plan_a.size(), plan_b.size());
  for (std::size_t i = 0; i < plan_a.size(); ++i) {
    EXPECT_EQ(plan_a.events()[i].kind, plan_b.events()[i].kind);
    EXPECT_DOUBLE_EQ(plan_a.events()[i].at_s, plan_b.events()[i].at_s);
    EXPECT_EQ(plan_a.events()[i].node, plan_b.events()[i].node);
    EXPECT_DOUBLE_EQ(plan_a.events()[i].duration_s, plan_b.events()[i].duration_s);
    EXPECT_DOUBLE_EQ(plan_a.events()[i].magnitude, plan_b.events()[i].magnitude);
  }

  stats::Rng rng_c{43};
  const auto plan_c = FaultPlan::sample(cfg, 8, rng_c);
  bool differs = plan_c.size() != plan_a.size();
  for (std::size_t i = 0; !differs && i < plan_a.size(); ++i) {
    differs = plan_a.events()[i].at_s != plan_c.events()[i].at_s;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlanTest, SampleRespectsHorizonAndRanges) {
  FaultPlanConfig cfg;
  cfg.horizon_s = 3600.0;
  cfg.slowdown_rate_per_hour = 50.0;
  cfg.flap_rate_per_hour = 50.0;
  stats::Rng rng{7};
  const auto plan = FaultPlan::sample(cfg, 4, rng);
  EXPECT_GT(plan.size(), 0u);
  for (const auto& ev : plan.events()) {
    EXPECT_GE(ev.at_s, 0.0);
    EXPECT_LT(ev.at_s, cfg.horizon_s);
    EXPECT_LT(ev.node, 4u);
    if (ev.kind == FaultKind::kTransientSlowdown) {
      EXPECT_GE(ev.magnitude, cfg.slowdown_factor_lo);
      EXPECT_LE(ev.magnitude, cfg.slowdown_factor_hi);
    } else if (ev.kind == FaultKind::kLinkFlap) {
      EXPECT_GE(ev.magnitude, cfg.flap_loss_lo);
      EXPECT_LE(ev.magnitude, cfg.flap_loss_hi);
    }
  }
}

TEST(FaultPlanTest, ZeroRatesSampleEmptyPlan) {
  stats::Rng rng{1};
  const auto plan = FaultPlan::sample(FaultPlanConfig{}, 4, rng);
  EXPECT_TRUE(plan.empty());
}

TEST(FaultInjectorTest, PopsInTimeOrderWithStableTies) {
  FaultPlan plan;
  plan.crash(20.0, 0).steal_tokens(5.0, 1, 10.0);
  FaultInjector inj{plan};
  EXPECT_EQ(inj.pending(), 2u);
  EXPECT_DOUBLE_EQ(inj.next_time(), 5.0);

  // Synthetic follow-up scheduled between the two plan events.
  inj.schedule({FaultKind::kTransientSlowdown, 10.0, 2, 0.0, 1.0});
  // Same-time events pop in scheduling order.
  inj.schedule({FaultKind::kLinkFlap, 10.0, 3, 0.0, 0.0});

  EXPECT_EQ(inj.pop().kind, FaultKind::kTokenTheft);
  EXPECT_EQ(inj.pop().kind, FaultKind::kTransientSlowdown);
  EXPECT_EQ(inj.pop().kind, FaultKind::kLinkFlap);
  EXPECT_EQ(inj.pop().kind, FaultKind::kNodeCrash);
  EXPECT_TRUE(inj.empty());
  EXPECT_TRUE(std::isinf(inj.next_time()));
}

TEST(FaultInjectorTest, TiesPopInScheduleOrderAcrossSeeds) {
  // Hundreds of events on a handful of timestamps, with follow-ups
  // scheduled at the just-popped time between pops (the engine's restore
  // and delayed-death pattern). Every pop is the earliest pending time and
  // every follow-up lands at that time, so the pop sequence must be the
  // schedule order stably sorted by time. A heap that drops its sequence
  // key pops ties in heap order and fails this.
  constexpr double kTimes[] = {0.0, 5.0, 12.5, 60.0, 3600.0};
  constexpr auto kLast = static_cast<std::int64_t>(std::size(kTimes)) - 1;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    stats::Rng rng{seed};
    std::vector<FaultEvent> scheduled;  // `node` is each event's id.
    FaultInjector inj;
    const auto schedule_at = [&](double at_s) {
      const FaultEvent event{FaultKind::kNodeCrash, at_s, scheduled.size(), 0.0, 0.0};
      scheduled.push_back(event);
      inj.schedule(event);
    };
    for (int i = 0; i < 200; ++i) {
      schedule_at(kTimes[rng.uniform_int(0, kLast)]);
    }
    std::vector<std::size_t> popped;
    while (!inj.empty()) {
      const FaultEvent event = inj.pop();
      popped.push_back(event.node);
      const auto follow_ups = rng.uniform_int(0, 2);
      for (std::int64_t k = 0; k < follow_ups && scheduled.size() < 400; ++k) {
        schedule_at(event.at_s);
      }
    }

    auto expected = scheduled;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const FaultEvent& a, const FaultEvent& b) { return a.at_s < b.at_s; });
    ASSERT_EQ(popped.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(popped[i], expected[i].node) << "seed " << seed << " pop " << i;
    }
  }
}

TEST(FaultInjectorTest, EmptyInjectorReportsInfiniteNextTime) {
  FaultInjector inj;
  EXPECT_TRUE(inj.empty());
  EXPECT_EQ(inj.next_time(), std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace cloudrepro::faults
