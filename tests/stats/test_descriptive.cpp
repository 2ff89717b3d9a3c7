#include "stats/descriptive.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "stats/rng.h"

namespace cloudrepro::stats {
namespace {

/// Number of representable doubles strictly between a and b (0 when equal):
/// the moments' numerical contract is stated in ulps.
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

TEST(DescriptiveTest, MeanOfKnownValues) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(DescriptiveTest, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(DescriptiveTest, VarianceIsUnbiasedSampleVariance) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Known: population variance 4, sample variance 32/7.
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
}

TEST(DescriptiveTest, VarianceOfSingletonIsZero) {
  const std::vector<double> xs{42.0};
  EXPECT_DOUBLE_EQ(variance(xs), 0.0);
}

TEST(DescriptiveTest, EmptyAndSingletonSamplesFollowTheZeroContract) {
  const std::vector<double> none;
  EXPECT_EQ(mean(none), 0.0);
  EXPECT_EQ(variance(none), 0.0);
  EXPECT_EQ(stddev(none), 0.0);
  EXPECT_EQ(coefficient_of_variation(none), 0.0);

  const std::vector<double> one{42.0};
  EXPECT_EQ(mean(one), 42.0);
  EXPECT_EQ(variance(one), 0.0);
  EXPECT_EQ(stddev(one), 0.0);
  EXPECT_EQ(coefficient_of_variation(one), 0.0);
  const Summary s = summarize(one);
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.min, 42.0);
  EXPECT_EQ(s.max, 42.0);
  EXPECT_EQ(s.variance, 0.0);
}

TEST(DescriptiveTest, MomentsMatchNaiveSumAndTwoPassVarianceSeedSwept) {
  // The mean is the naive left-to-right sum's quotient bit for bit. The
  // one-pass Youngs–Cramér variance rounds differently from the two-pass
  // definition: on these 40 samples they differ by at most 6 ulps (3 in the
  // stddev, 5 in the CoV), so 8 ulps bounds them with a little room.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto xs = lognormal_sample(17 + seed % 120, seed);
    double sum = 0.0;
    for (const double x : xs) sum += x;
    const double n = static_cast<double>(xs.size());
    const double naive_mean = sum / n;
    double squares = 0.0;
    for (const double x : xs) squares += (x - naive_mean) * (x - naive_mean);
    const double two_pass = squares / (n - 1.0);

    EXPECT_EQ(mean(xs), naive_mean) << "seed " << seed;
    EXPECT_LE(ulp_distance(variance(xs), two_pass), 8u) << "seed " << seed;
    EXPECT_LE(ulp_distance(stddev(xs), std::sqrt(two_pass)), 8u) << "seed " << seed;
    EXPECT_LE(ulp_distance(coefficient_of_variation(xs),
                           std::sqrt(two_pass) / naive_mean),
              8u)
        << "seed " << seed;
    const Summary s = summarize(xs);
    EXPECT_EQ(s.count, xs.size());
    EXPECT_EQ(s.min, *std::min_element(xs.begin(), xs.end()));
    EXPECT_EQ(s.max, *std::max_element(xs.begin(), xs.end()));
  }
}

TEST(DescriptiveTest, StddevIsSquareRootOfVariance) {
  const std::vector<double> xs{1.0, 3.0, 5.0};
  EXPECT_DOUBLE_EQ(stddev(xs), std::sqrt(variance(xs)));
}

TEST(DescriptiveTest, CoefficientOfVariation) {
  const std::vector<double> xs{10.0, 10.0, 10.0};
  EXPECT_DOUBLE_EQ(coefficient_of_variation(xs), 0.0);
  const std::vector<double> ys{5.0, 15.0};
  EXPECT_NEAR(coefficient_of_variation(ys), stddev(ys) / 10.0, 1e-12);
}

TEST(DescriptiveTest, CoVOfZeroMeanIsZero) {
  const std::vector<double> xs{-1.0, 1.0};
  EXPECT_DOUBLE_EQ(coefficient_of_variation(xs), 0.0);
}

TEST(DescriptiveTest, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(DescriptiveTest, QuantileEndpoints) {
  const std::vector<double> xs{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
}

TEST(DescriptiveTest, QuantileInterpolatesLinearly) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.75), 7.5);
}

TEST(DescriptiveTest, QuantileThrowsOnEmptyOrBadQ) {
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  const std::vector<double> xs{1.0};
  EXPECT_THROW(quantile(xs, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile(xs, 1.1), std::invalid_argument);
}

TEST(DescriptiveTest, QuantileOfSingleton) {
  const std::vector<double> xs{7.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.3), 7.0);
}

TEST(DescriptiveTest, SummarizeMatchesComponents) {
  const std::vector<double> xs{4.0, 8.0, 6.0, 2.0};
  const auto s = summarize(xs);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 5.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 8.0);
  EXPECT_NEAR(s.stddev, std::sqrt(s.variance), 1e-15);
}

TEST(DescriptiveTest, SummarizeFieldsAreBitEqualToComponents) {
  // summarize computes its moments in one pass; every field must still be
  // bit-equal to the standalone function that computes it.
  const auto xs = lognormal_sample(64, 7);
  const auto s = summarize(xs);
  EXPECT_EQ(s.count, xs.size());
  EXPECT_EQ(s.mean, mean(xs));
  EXPECT_EQ(s.median, median(xs));
  EXPECT_EQ(s.variance, variance(xs));
  EXPECT_EQ(s.stddev, stddev(xs));
  EXPECT_EQ(s.coefficient_of_variation, coefficient_of_variation(xs));
  EXPECT_EQ(s.min, *std::min_element(xs.begin(), xs.end()));
  EXPECT_EQ(s.max, *std::max_element(xs.begin(), xs.end()));
}

TEST(DescriptiveTest, SummarizeThrowsOnEmpty) {
  EXPECT_THROW(summarize({}), std::invalid_argument);
}

TEST(DescriptiveTest, BoxStatsOrdering) {
  Rng rng{1};
  std::vector<double> xs(5000);
  for (auto& x : xs) x = rng.normal(0.0, 1.0);
  const auto b = box_stats(xs);
  EXPECT_LT(b.p1, b.p25);
  EXPECT_LT(b.p25, b.p50);
  EXPECT_LT(b.p50, b.p75);
  EXPECT_LT(b.p75, b.p99);
  EXPECT_NEAR(b.p50, 0.0, 0.1);
  EXPECT_GT(b.iqr(), 0.0);
}

TEST(DescriptiveTest, SortedReturnsAscendingCopy) {
  const std::vector<double> xs{3.0, 1.0, 2.0};
  const auto s = sorted(xs);
  EXPECT_EQ(s, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(xs[0], 3.0);  // Original untouched.
}

// Property sweep: for any sample, quantiles are monotone in q and bounded by
// min/max.
class QuantileMonotonicityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantileMonotonicityTest, MonotoneAndBounded) {
  Rng rng{GetParam()};
  std::vector<double> xs(257);
  for (auto& x : xs) x = rng.pareto(1.0, 1.5);
  const auto s = sorted(xs);
  double prev = s.front();
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = quantile_sorted(s, q);
    EXPECT_GE(v, prev - 1e-12);
    EXPECT_GE(v, s.front());
    EXPECT_LE(v, s.back());
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotonicityTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace cloudrepro::stats
