#include "stats/streaming.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "stats/descriptive.h"
#include "stats/rng.h"

namespace cloudrepro::stats {
namespace {

/// Number of representable doubles strictly between a and b (0 when equal).
/// The refactor's numerical contract is stated in ulps, so the property
/// suite measures in ulps rather than a relative epsilon.
std::uint64_t ulp_distance(double a, double b) {
  if (a == b) return 0;
  if (!std::isfinite(a) || !std::isfinite(b)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  std::uint64_t steps = 0;
  double x = std::min(a, b);
  const double hi = std::max(a, b);
  while (x < hi && steps < 64) {
    x = std::nextafter(x, std::numeric_limits<double>::infinity());
    ++steps;
  }
  return steps;
}

std::vector<double> lognormal_sample(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<double> xs(n);
  for (auto& x : xs) x = std::exp(rng.normal(5.0, 0.4));
  return xs;
}

// ---------------------------------------------------------------------------
// StreamingMoments vs the legacy span-based functions.

TEST(StreamingMomentsTest, EmptyAccumulatorMatchesLegacyContract) {
  const StreamingMoments m;
  EXPECT_EQ(m.count(), 0u);
  EXPECT_EQ(m.mean(), 0.0);
  EXPECT_EQ(m.variance(), 0.0);
  EXPECT_EQ(m.stddev(), 0.0);
  EXPECT_EQ(m.coefficient_of_variation(), 0.0);
  EXPECT_EQ(m.standard_error(), 0.0);
  EXPECT_EQ(m.min(), 0.0);
  EXPECT_EQ(m.max(), 0.0);
}

TEST(StreamingMomentsTest, SequentialFeedMatchesLegacySeedSwept) {
  // Seed-swept property: across many samples, the sequential accumulator
  // reproduces mean/min/max/count exactly (shared naive sum) and variance /
  // stddev to within 1 ulp of the two-pass legacy implementation.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto xs = lognormal_sample(17 + seed % 120, seed);
    StreamingMoments m;
    m.add_all(xs);

    EXPECT_EQ(m.count(), xs.size());
    EXPECT_EQ(m.mean(), mean(xs)) << "seed " << seed;
    EXPECT_EQ(m.min(), *std::min_element(xs.begin(), xs.end()));
    EXPECT_EQ(m.max(), *std::max_element(xs.begin(), xs.end()));
    EXPECT_LE(ulp_distance(m.variance(), variance(xs)), 1u) << "seed " << seed;
    EXPECT_LE(ulp_distance(m.stddev(), stddev(xs)), 1u) << "seed " << seed;
    EXPECT_LE(ulp_distance(m.coefficient_of_variation(),
                           coefficient_of_variation(xs)),
              1u)
        << "seed " << seed;
  }
}

TEST(StreamingMomentsTest, SummarizeAdapterIsConsistent) {
  // descriptive.h's summarize is now a thin adapter over StreamingMoments;
  // both views of the same sample must agree exactly.
  const auto xs = lognormal_sample(64, 7);
  const Summary s = summarize(xs);
  StreamingMoments m;
  m.add_all(xs);
  EXPECT_EQ(s.count, m.count());
  EXPECT_EQ(s.mean, m.mean());
  EXPECT_EQ(s.variance, m.variance());
  EXPECT_EQ(s.stddev, m.stddev());
  EXPECT_EQ(s.coefficient_of_variation, m.coefficient_of_variation());
  EXPECT_EQ(s.min, m.min());
  EXPECT_EQ(s.max, m.max());
}

TEST(StreamingMomentsTest, CachedValuesInvalidatedByAdd) {
  StreamingMoments m;
  m.add(1.0);
  m.add(3.0);
  const double v1 = m.variance();  // Populates the cache.
  EXPECT_DOUBLE_EQ(v1, 2.0);
  m.add(100.0);  // Must dirty every cached slot.
  const std::vector<double> xs{1.0, 3.0, 100.0};
  EXPECT_LE(ulp_distance(m.variance(), variance(xs)), 1u);
  EXPECT_LE(ulp_distance(m.stddev(), stddev(xs)), 1u);
}

TEST(StreamingMomentsTest, MergeMatchesConcatenationWithinUlps) {
  // Chan's update reassociates the sums, so allow a small ulp budget
  // (empirically 0-2 on this data) rather than exact equality.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto xs = lognormal_sample(101, seed);
    for (const std::size_t split : {std::size_t{0}, std::size_t{1},
                                    std::size_t{50}, std::size_t{100},
                                    std::size_t{101}}) {
      StreamingMoments a, b, whole;
      a.add_all(std::span{xs}.first(split));
      b.add_all(std::span{xs}.subspan(split));
      whole.add_all(xs);
      a.merge(b);
      EXPECT_EQ(a.count(), whole.count());
      EXPECT_LE(ulp_distance(a.mean(), whole.mean()), 2u)
          << "seed " << seed << " split " << split;
      EXPECT_LE(ulp_distance(a.variance(), whole.variance()), 4u)
          << "seed " << seed << " split " << split;
      EXPECT_EQ(a.min(), whole.min());
      EXPECT_EQ(a.max(), whole.max());
    }
  }
}

TEST(StreamingMomentsTest, MergeIsCommutativeAndAssociative) {
  const auto xs = lognormal_sample(90, 11);
  StreamingMoments p[3];
  p[0].add_all(std::span{xs}.first(30));
  p[1].add_all(std::span{xs}.subspan(30, 30));
  p[2].add_all(std::span{xs}.subspan(60));

  // (p0 + p1) + p2  vs  p0 + (p1 + p2)  vs  p2 + p1 + p0.
  StreamingMoments left = p[0];
  left.merge(p[1]);
  left.merge(p[2]);
  StreamingMoments bc = p[1];
  bc.merge(p[2]);
  StreamingMoments right = p[0];
  right.merge(bc);
  StreamingMoments rev = p[2];
  rev.merge(p[1]);
  rev.merge(p[0]);

  EXPECT_EQ(left.count(), right.count());
  EXPECT_LE(ulp_distance(left.mean(), right.mean()), 2u);
  EXPECT_LE(ulp_distance(left.variance(), right.variance()), 4u);
  EXPECT_LE(ulp_distance(left.mean(), rev.mean()), 2u);
  EXPECT_LE(ulp_distance(left.variance(), rev.variance()), 4u);
  EXPECT_EQ(left.min(), rev.min());
  EXPECT_EQ(left.max(), rev.max());
}

TEST(StreamingMomentsTest, MergeWithEmptyIsIdentity) {
  const auto xs = lognormal_sample(12, 3);
  StreamingMoments m;
  m.add_all(xs);
  const double mean_before = m.mean();
  const double var_before = m.variance();
  m.merge(StreamingMoments{});
  EXPECT_EQ(m.mean(), mean_before);
  EXPECT_EQ(m.variance(), var_before);

  StreamingMoments empty;
  StreamingMoments other;
  other.add_all(xs);
  empty.merge(other);
  EXPECT_EQ(empty.count(), xs.size());
  EXPECT_EQ(empty.mean(), mean_before);
}

TEST(StreamingTest, WelchFromMomentsAgreesWithDirectComputation) {
  Rng rng{17};
  StreamingMoments a, b;
  for (int i = 0; i < 60; ++i) a.add(rng.normal(100.0, 5.0));
  for (int i = 0; i < 45; ++i) b.add(rng.normal(104.0, 7.0));
  const TestResult t = welch_t_test(a, b);
  EXPECT_TRUE(t.reject(0.05));  // 4-sigma-ish separation on these sizes.
  const TestResult z = z_test(a, b);
  EXPECT_TRUE(z.reject(0.05));
  // Same-distribution null: both tests should usually fail to reject.
  StreamingMoments c;
  for (int i = 0; i < 60; ++i) c.add(rng.normal(100.0, 5.0));
  EXPECT_GT(welch_t_test(a, c).p_value, 0.01);
}

}  // namespace
}  // namespace cloudrepro::stats
