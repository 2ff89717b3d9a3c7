#include "stats/ci.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/descriptive.h"
#include "stats/rng.h"
#include "stats/special.h"

namespace cloudrepro::stats {
namespace {

std::vector<double> normal_sample(std::size_t n, double mean, double sd,
                                  std::uint64_t seed) {
  Rng rng{seed};
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.normal(mean, sd);
  return xs;
}

TEST(CiTest, MedianCiContainsSampleMedian) {
  const auto xs = normal_sample(101, 50.0, 5.0, 3);
  const auto ci = median_ci(xs);
  ASSERT_TRUE(ci.valid);
  EXPECT_LE(ci.lower, ci.estimate);
  EXPECT_GE(ci.upper, ci.estimate);
  EXPECT_TRUE(ci.contains(median(xs)));
}

TEST(CiTest, ThreeRepetitionsCannotFormMedianCi) {
  // The Figure 3 caption: "three repetitions are insufficient to calculate
  // CIs" — our implementation reports this explicitly.
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const auto ci = median_ci(xs);
  EXPECT_FALSE(ci.valid);
  EXPECT_DOUBLE_EQ(ci.estimate, 2.0);
}

TEST(CiTest, SixSamplesIsMinimumForMedian95) {
  EXPECT_EQ(min_samples_for_quantile_ci(0.5, 0.95), 6u);
  const std::vector<double> xs{1, 2, 3, 4, 5, 6};
  EXPECT_TRUE(median_ci(xs).valid);
  const std::vector<double> ys{1, 2, 3, 4, 5};
  EXPECT_FALSE(median_ci(ys).valid);
}

TEST(CiTest, TailQuantileNeedsFarMoreSamples) {
  // F2.3/Figure 3b: tail estimates are much harder than medians.
  const auto median_n = min_samples_for_quantile_ci(0.5, 0.95);
  const auto p90_n = min_samples_for_quantile_ci(0.9, 0.95);
  EXPECT_GT(p90_n, 4 * median_n);
}

TEST(CiTest, HigherConfidenceWidensInterval) {
  const auto xs = normal_sample(200, 0.0, 1.0, 4);
  const auto ci95 = median_ci(xs, 0.95);
  const auto ci99 = median_ci(xs, 0.99);
  ASSERT_TRUE(ci95.valid);
  ASSERT_TRUE(ci99.valid);
  EXPECT_GE(ci99.width(), ci95.width());
}

TEST(CiTest, MoreSamplesTightenInterval) {
  const auto small = normal_sample(20, 0.0, 1.0, 5);
  const auto large = normal_sample(2000, 0.0, 1.0, 5);
  const auto ci_small = median_ci(small);
  const auto ci_large = median_ci(large);
  ASSERT_TRUE(ci_small.valid);
  ASSERT_TRUE(ci_large.valid);
  EXPECT_LT(ci_large.width(), ci_small.width());
}

TEST(CiTest, AchievedConfidenceAtLeastRequested) {
  const auto xs = normal_sample(60, 0.0, 1.0, 6);
  const auto ci = median_ci(xs, 0.95);
  ASSERT_TRUE(ci.valid);
  EXPECT_GE(ci.confidence, 0.95);
}

TEST(CiTest, RelativeHalfWidth) {
  ConfidenceInterval ci;
  ci.lower = 90.0;
  ci.estimate = 100.0;
  ci.upper = 110.0;
  EXPECT_NEAR(ci.relative_half_width(), 0.1, 1e-12);
}

TEST(CiTest, ZeroEstimateRelativeHalfWidthIsInfinite) {
  // Regression: a degenerate interval around estimate == 0 used to report a
  // relative half-width of 0.0 — "perfectly converged" — letting a CONFIRM
  // analysis of an all-zero metric stop after the minimum repetitions. The
  // degenerate case must now read as never-converged.
  ConfidenceInterval ci;
  ci.lower = 0.0;
  ci.estimate = 0.0;
  ci.upper = 0.0;
  ci.valid = true;
  EXPECT_TRUE(std::isinf(ci.relative_half_width()));

  // Nonzero width around a zero estimate is equally undefined — same answer.
  ci.lower = -1.0;
  ci.upper = 1.0;
  EXPECT_TRUE(std::isinf(ci.relative_half_width()));
}

TEST(CiTest, QuantileCiSortedMatchesUnsortedPath) {
  const auto xs = normal_sample(40, 50.0, 4.0, 21);
  auto s = xs;
  std::sort(s.begin(), s.end());
  const auto a = quantile_ci(xs, 0.5);
  const auto b = quantile_ci_sorted(s, 0.5);
  ASSERT_TRUE(a.valid);
  EXPECT_EQ(a.lower, b.lower);
  EXPECT_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.upper, b.upper);
  EXPECT_EQ(a.confidence, b.confidence);
}

// The interval's definition, written out index by index from binomial_cdf:
// j is the largest index with BinomCdf(j - 1) <= alpha/2, k the smallest
// with BinomCdf(k - 1) >= 1 - alpha/2, and the coverage is their CDF
// difference. quantile_ci_sorted finds them in one pass over a running
// sum and must agree bit for bit. `cdf(i)` returns binomial_cdf(i, n, q).
struct PerIndexInterval {
  long long j = 0;
  long long k = 0;
  double coverage = 0.0;
  bool valid() const { return j != 0 && k != 0 && j <= k; }
};

template <typename Cdf>
PerIndexInterval per_index_interval(const Cdf& cdf, long long n, double confidence) {
  const double alpha = 1.0 - confidence;
  PerIndexInterval r;
  for (long long i = 1; i <= n; ++i) {
    if (cdf(i - 1) <= alpha / 2.0) {
      r.j = i;
    } else {
      break;
    }
  }
  for (long long i = 1; i <= n; ++i) {
    if (cdf(i - 1) >= 1.0 - alpha / 2.0) {
      r.k = i;
      break;
    }
  }
  if (r.valid()) r.coverage = cdf(r.k - 1) - cdf(r.j - 1);
  return r;
}

TEST(CiTest, OnePassMatchesPerIndexDefinitionBitForBit) {
  std::vector<long long> sizes;
  for (long long n = 1; n <= 150; ++n) sizes.push_back(n);
  for (const long long n : {199, 256, 500, 1000}) sizes.push_back(n);
  std::size_t valid = 0;
  for (const long long n : sizes) {
    std::vector<double> sample(static_cast<std::size_t>(n));
    for (long long i = 0; i < n; ++i) sample[static_cast<std::size_t>(i)] = i + 1.0;
    for (const double q : {0.05, 0.1, 0.5, 0.9, 0.95}) {
      // binomial_cdf is O(i) per call; each value is computed once per
      // (n, q) and shared across the confidence levels.
      std::vector<double> memo;
      const auto cdf = [&](long long i) {
        while (static_cast<long long>(memo.size()) <= i) {
          memo.push_back(binomial_cdf(static_cast<long long>(memo.size()), n, q));
        }
        return memo[static_cast<std::size_t>(i)];
      };
      for (const double confidence : {0.8, 0.9, 0.95, 0.99}) {
        const auto ci = quantile_ci_sorted(sample, q, confidence);
        const auto ref = per_index_interval(cdf, n, confidence);
        const auto where = ::testing::Message()
                           << "n=" << n << " q=" << q << " confidence=" << confidence;
        ASSERT_EQ(ci.valid, ref.valid()) << where;
        if (!ref.valid()) {
          EXPECT_EQ(ci.lower, 1.0) << where;
          EXPECT_EQ(ci.upper, static_cast<double>(n)) << where;
          EXPECT_EQ(ci.confidence, confidence) << where;
          continue;
        }
        ++valid;
        EXPECT_EQ(ci.lower, static_cast<double>(ref.j)) << where;
        EXPECT_EQ(ci.upper, static_cast<double>(ref.k)) << where;
        EXPECT_EQ(ci.confidence, ref.coverage) << where;
      }
    }
  }
  EXPECT_GT(valid, sizes.size() * 10);  // Most cases form an interval.
}

TEST(CiTest, InvalidArgumentsThrow) {
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_THROW(quantile_ci({}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile_ci(xs, 0.0), std::invalid_argument);
  EXPECT_THROW(quantile_ci(xs, 1.0), std::invalid_argument);
  EXPECT_THROW(quantile_ci(xs, 0.5, 0.0), std::invalid_argument);
  EXPECT_THROW(quantile_ci(xs, 0.5, 1.0), std::invalid_argument);
}

TEST(CiTest, BootstrapMedianCiAgreesWithOrderStatisticCi) {
  const auto xs = normal_sample(300, 20.0, 3.0, 7);
  Rng rng{8};
  const auto boot = bootstrap_ci(
      xs, [](std::span<const double> s) { return median(s); }, rng);
  const auto order = median_ci(xs);
  ASSERT_TRUE(boot.valid);
  ASSERT_TRUE(order.valid);
  // The two methods should overlap substantially.
  EXPECT_LT(boot.lower, order.upper);
  EXPECT_GT(boot.upper, order.lower);
  EXPECT_NEAR(boot.estimate, order.estimate, 1e-12);
}

TEST(CiTest, BootstrapThrowsOnEmpty) {
  Rng rng{9};
  EXPECT_THROW(
      bootstrap_ci({}, [](std::span<const double> s) { return mean(s); }, rng),
      std::invalid_argument);
}

// ---- Coverage property: the 95% CI for the median covers the true median
// ~95% of the time (within Monte-Carlo tolerance), for several sample sizes
// and distributions. This validates the Le Boudec order-statistic method
// end-to-end.
struct CoverageCase {
  std::size_t n;
  bool heavy_tailed;
};

class CiCoverageTest : public ::testing::TestWithParam<CoverageCase> {};

TEST_P(CiCoverageTest, CoversTrueMedianAtNominalRate) {
  const auto param = GetParam();
  Rng rng{1234};
  const double true_median = param.heavy_tailed ? 1.0 * std::pow(2.0, 1.0 / 1.5) : 0.0;

  int covered = 0;
  constexpr int kTrials = 600;
  std::vector<double> xs(param.n);
  for (int t = 0; t < kTrials; ++t) {
    for (auto& x : xs) {
      x = param.heavy_tailed ? rng.pareto(1.0, 1.5) : rng.normal(0.0, 1.0);
    }
    const auto ci = median_ci(xs);
    ASSERT_TRUE(ci.valid);
    if (ci.contains(true_median)) ++covered;
  }
  const double coverage = static_cast<double>(covered) / kTrials;
  // Order-statistic CIs are conservative: coverage >= nominal, and should
  // not be absurdly wide either.
  EXPECT_GE(coverage, 0.93);
  EXPECT_LE(coverage, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    SampleSizes, CiCoverageTest,
    ::testing::Values(CoverageCase{10, false}, CoverageCase{30, false},
                      CoverageCase{100, false}, CoverageCase{10, true},
                      CoverageCase{50, true}));

}  // namespace
}  // namespace cloudrepro::stats
