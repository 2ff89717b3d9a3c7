#include "stats/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "stats/descriptive.h"

namespace cloudrepro::stats {
namespace {

TEST(RngTest, SameSeedSameSequence) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDifferentSequences) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformIsInUnitInterval) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng{8};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(3.0, 9.0);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng{9};
  std::vector<double> xs(50000);
  for (auto& x : xs) x = rng.uniform();
  EXPECT_NEAR(mean(xs), 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng{10};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng{11};
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng{12};
  std::vector<double> xs(100000);
  for (auto& x : xs) x = rng.normal(10.0, 2.0);
  EXPECT_NEAR(mean(xs), 10.0, 0.05);
  EXPECT_NEAR(stddev(xs), 2.0, 0.05);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng{13};
  std::vector<double> xs(100000);
  for (auto& x : xs) x = rng.exponential(0.5);
  EXPECT_NEAR(mean(xs), 2.0, 0.05);
  for (const double x : xs) EXPECT_GE(x, 0.0);
}

TEST(RngTest, LognormalMedianIsExpMu) {
  Rng rng{14};
  std::vector<double> xs(50000);
  for (auto& x : xs) x = rng.lognormal(1.0, 0.5);
  EXPECT_NEAR(median(xs), std::exp(1.0), 0.1);
}

TEST(RngTest, ParetoRespectsScaleFloor) {
  Rng rng{15};
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.pareto(3.0, 2.0), 3.0);
  }
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng{16};
  int hits = 0;
  constexpr int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.01);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng{20};
  const auto perm = rng.permutation(50);
  std::set<std::size_t> unique(perm.begin(), perm.end());
  EXPECT_EQ(unique.size(), 50u);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 49u);
}

TEST(RngTest, PermutationOfZeroElementsIsEmpty) {
  Rng rng{21};
  EXPECT_TRUE(rng.permutation(0).empty());
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent{22};
  Rng child = parent.split();
  // The child stream should differ from the parent's continuation.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next_u64() == child.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

}  // namespace
}  // namespace cloudrepro::stats
