#include "stats/hypothesis.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/rng.h"

namespace cloudrepro::stats {
namespace {

std::vector<double> normal_sample(std::size_t n, std::uint64_t seed, double mean = 0.0,
                                  double sd = 1.0) {
  Rng rng{seed};
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.normal(mean, sd);
  return xs;
}

// ---- Shapiro-Wilk -----------------------------------------------------------

TEST(ShapiroWilkTest, AcceptsNormalData) {
  const auto xs = normal_sample(100, 11);
  const auto r = shapiro_wilk(xs);
  EXPECT_GT(r.statistic, 0.97);
  EXPECT_FALSE(r.reject());
}

TEST(ShapiroWilkTest, RejectsExponentialData) {
  Rng rng{12};
  std::vector<double> xs(100);
  for (auto& x : xs) x = rng.exponential(1.0);
  const auto r = shapiro_wilk(xs);
  EXPECT_TRUE(r.reject());
}

TEST(ShapiroWilkTest, RejectsBimodalData) {
  Rng rng{13};
  std::vector<double> xs(200);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.normal(i % 2 == 0 ? -10.0 : 10.0, 1.0);
  }
  EXPECT_TRUE(shapiro_wilk(xs).reject());
}

TEST(ShapiroWilkTest, RejectsTokenBucketShapedData) {
  // The bimodal fast/slow runtimes a token bucket produces are exactly what
  // F5.4 wants detected before anyone reports mean +- stddev.
  std::vector<double> xs;
  for (int i = 0; i < 25; ++i) xs.push_back(100.0 + 0.5 * i);
  for (int i = 0; i < 25; ++i) xs.push_back(400.0 + 0.5 * i);
  EXPECT_TRUE(shapiro_wilk(xs).reject());
}

TEST(ShapiroWilkTest, SmallSampleSupport) {
  const std::vector<double> xs{1.0, 2.5, 2.9, 4.0};
  const auto r = shapiro_wilk(xs);
  EXPECT_GT(r.statistic, 0.0);
  EXPECT_LE(r.statistic, 1.0);
  EXPECT_GE(r.p_value, 0.0);
  EXPECT_LE(r.p_value, 1.0);
}

TEST(ShapiroWilkTest, ThrowsBelowThreeSamples) {
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_THROW(shapiro_wilk(xs), std::invalid_argument);
}

TEST(ShapiroWilkTest, ConstantSampleDoesNotCrash) {
  const std::vector<double> xs{5.0, 5.0, 5.0, 5.0};
  const auto r = shapiro_wilk(xs);
  EXPECT_FALSE(r.reject());
}

// ---- Mann-Whitney U ---------------------------------------------------------

TEST(MannWhitneyTest, SameDistributionNotRejected) {
  const auto a = normal_sample(60, 21);
  const auto b = normal_sample(60, 22);
  EXPECT_FALSE(mann_whitney_u(a, b).reject(0.01));
}

TEST(MannWhitneyTest, ShiftedDistributionsRejected) {
  const auto a = normal_sample(60, 23, 0.0);
  const auto b = normal_sample(60, 24, 3.0);
  EXPECT_TRUE(mann_whitney_u(a, b).reject());
}

TEST(MannWhitneyTest, HandlesTies) {
  const std::vector<double> a{1.0, 1.0, 2.0, 2.0, 3.0};
  const std::vector<double> b{1.0, 2.0, 2.0, 3.0, 3.0};
  const auto r = mann_whitney_u(a, b);
  EXPECT_GE(r.p_value, 0.0);
  EXPECT_LE(r.p_value, 1.0);
  EXPECT_FALSE(r.reject());
}

TEST(MannWhitneyTest, ThrowsOnEmpty) {
  const std::vector<double> a{1.0};
  EXPECT_THROW(mann_whitney_u(a, {}), std::invalid_argument);
  EXPECT_THROW(mann_whitney_u({}, a), std::invalid_argument);
}

TEST(MannWhitneyTest, DetectsEarlyVsLateBatchShift) {
  // Batches of runs before/after a token bucket drained should differ —
  // the check the paper wants between repeated experiment batches.
  std::vector<double> early, late;
  Rng rng{25};
  for (int i = 0; i < 30; ++i) early.push_back(rng.normal(100.0, 2.0));
  for (int i = 0; i < 30; ++i) late.push_back(rng.normal(140.0, 2.0));
  EXPECT_TRUE(mann_whitney_u(early, late).reject());
}

// ---- Runs test --------------------------------------------------------------

TEST(RunsTest, IidDataNotRejected) {
  const auto xs = normal_sample(200, 31);
  EXPECT_FALSE(runs_test(xs).reject(0.01));
}

TEST(RunsTest, RegimeSwitchingRejected) {
  // Long "fast" block followed by long "slow" block: 2 runs, far below the
  // expected count — exactly a depleting token bucket's signature.
  std::vector<double> xs;
  for (int i = 0; i < 30; ++i) xs.push_back(1.0 + 0.01 * i);
  for (int i = 0; i < 30; ++i) xs.push_back(10.0 + 0.01 * i);
  EXPECT_TRUE(runs_test(xs).reject());
}

TEST(RunsTest, AlternatingDataRejected) {
  // Perfect alternation has too many runs — also not independent.
  std::vector<double> xs;
  for (int i = 0; i < 60; ++i) xs.push_back(i % 2 == 0 ? 1.0 : 2.0);
  EXPECT_TRUE(runs_test(xs).reject());
}

TEST(RunsTest, ThrowsOnTinySample) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  EXPECT_THROW(runs_test(xs), std::invalid_argument);
}

// ---- ADF stationarity -------------------------------------------------------

TEST(AdfTest, StationaryNoiseDetected) {
  const auto xs = normal_sample(400, 41);
  const auto r = adf_test(xs);
  // Stationary -> reject the unit-root null.
  EXPECT_TRUE(r.reject());
  EXPECT_LT(r.statistic, -2.86);
}

TEST(AdfTest, RandomWalkNotRejected) {
  Rng rng{42};
  std::vector<double> xs(400);
  double level = 0.0;
  for (auto& x : xs) {
    level += rng.normal(0.0, 1.0);
    x = level;
  }
  const auto r = adf_test(xs);
  EXPECT_FALSE(r.reject());
}

TEST(AdfTest, MeanRevertingProcessDetected) {
  Rng rng{43};
  std::vector<double> xs(400);
  double level = 0.0;
  for (auto& x : xs) {
    level = 0.5 * level + rng.normal(0.0, 1.0);
    x = level;
  }
  EXPECT_TRUE(adf_test(xs).reject());
}

TEST(AdfTest, ThrowsOnShortSeries) {
  const auto xs = normal_sample(5, 44);
  EXPECT_THROW(adf_test(xs, 3), std::invalid_argument);
  EXPECT_THROW(adf_test(xs, -1), std::invalid_argument);
}

// ---- Autocorrelation & Ljung-Box ---------------------------------------------

TEST(AutocorrelationTest, WhiteNoiseNearZero) {
  const auto xs = normal_sample(5000, 70);
  EXPECT_NEAR(autocorrelation(xs, 1), 0.0, 0.05);
  EXPECT_NEAR(autocorrelation(xs, 5), 0.0, 0.05);
}

TEST(AutocorrelationTest, Ar1ProcessPositiveAtLag1) {
  Rng rng{71};
  std::vector<double> xs(5000);
  double level = 0.0;
  for (auto& x : xs) {
    level = 0.8 * level + rng.normal(0.0, 1.0);
    x = level;
  }
  EXPECT_GT(autocorrelation(xs, 1), 0.7);
  EXPECT_GT(autocorrelation(xs, 1), autocorrelation(xs, 5));
}

TEST(AutocorrelationTest, EdgeCases) {
  EXPECT_DOUBLE_EQ(autocorrelation(std::vector<double>{1.0}, 1), 0.0);
  const std::vector<double> constant{2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(autocorrelation(constant, 1), 0.0);
}

TEST(LjungBoxTest, WhiteNoiseNotRejected) {
  const auto xs = normal_sample(500, 72);
  EXPECT_FALSE(ljung_box(xs, 10).reject(0.01));
}

TEST(LjungBoxTest, CorrelatedSeriesRejected) {
  Rng rng{73};
  std::vector<double> xs(500);
  double level = 0.0;
  for (auto& x : xs) {
    level = 0.9 * level + rng.normal(0.0, 1.0);
    x = level;
  }
  EXPECT_TRUE(ljung_box(xs, 10).reject());
}

TEST(LjungBoxTest, ThrowsOnBadLag) {
  const auto xs = normal_sample(10, 74);
  EXPECT_THROW(ljung_box(xs, 0), std::invalid_argument);
  EXPECT_THROW(ljung_box(xs, 10), std::invalid_argument);
}


// ---- Kolmogorov-Smirnov -------------------------------------------------------

TEST(KolmogorovSmirnovTest, SameDistributionNotRejected) {
  const auto a = normal_sample(200, 181);
  const auto b = normal_sample(200, 182);
  EXPECT_FALSE(kolmogorov_smirnov(a, b).reject(0.01));
}

TEST(KolmogorovSmirnovTest, LocationShiftRejected) {
  const auto a = normal_sample(150, 83, 0.0);
  const auto b = normal_sample(150, 84, 1.0);
  EXPECT_TRUE(kolmogorov_smirnov(a, b).reject());
}

TEST(KolmogorovSmirnovTest, ScaleChangeRejectedEvenWithEqualMedians) {
  // The F5.1 use case: two clouds with the same median bandwidth but very
  // different spreads are NOT interchangeable; a median test would miss it.
  const auto a = normal_sample(300, 85, 10.0, 0.5);
  const auto b = normal_sample(300, 86, 10.0, 4.0);
  EXPECT_TRUE(kolmogorov_smirnov(a, b).reject());
  EXPECT_FALSE(mann_whitney_u(a, b).reject(0.01));  // Rank test misses it.
}

TEST(KolmogorovSmirnovTest, StatisticIsEcdfGap) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b{10.0, 11.0, 12.0, 13.0};
  const auto r = kolmogorov_smirnov(a, b);
  EXPECT_DOUBLE_EQ(r.statistic, 1.0);  // Fully separated ECDFs.
  EXPECT_LT(r.p_value, 0.05);
}

TEST(KolmogorovSmirnovTest, ThrowsOnEmpty) {
  const std::vector<double> a{1.0};
  EXPECT_THROW(kolmogorov_smirnov(a, {}), std::invalid_argument);
}


// ---- Kruskal-Wallis ----------------------------------------------------------

TEST(KruskalWallisTest, SameDistributionNotRejected) {
  std::vector<std::vector<double>> groups;
  for (int g = 0; g < 4; ++g) groups.push_back(normal_sample(40, 90 + g, 10.0, 2.0));
  EXPECT_FALSE(kruskal_wallis(groups).reject(0.01));
}

TEST(KruskalWallisTest, ShiftedGroupRejected) {
  std::vector<std::vector<double>> groups;
  groups.push_back(normal_sample(40, 94, 10.0, 1.0));
  groups.push_back(normal_sample(40, 95, 10.0, 1.0));
  groups.push_back(normal_sample(40, 96, 14.0, 1.0));
  EXPECT_TRUE(kruskal_wallis(groups).reject());
}

TEST(KruskalWallisTest, RobustToHeavyTails) {
  // The non-parametric advantage: a Pareto-contaminated group with the same
  // center does not trigger; a genuinely shifted one does.
  Rng rng{97};
  std::vector<std::vector<double>> shifted;
  std::vector<double> a(50), b(50);
  for (auto& x : a) x = 10.0 + rng.pareto(1.0, 2.0);
  for (auto& x : b) x = 14.0 + rng.pareto(1.0, 2.0);
  shifted.push_back(a);
  shifted.push_back(b);
  EXPECT_TRUE(kruskal_wallis(shifted).reject());
}

TEST(KruskalWallisTest, HandlesTies) {
  const std::vector<std::vector<double>> groups{{1.0, 1.0, 2.0}, {1.0, 2.0, 2.0}};
  const auto r = kruskal_wallis(groups);
  EXPECT_GE(r.p_value, 0.0);
  EXPECT_LE(r.p_value, 1.0);
  EXPECT_FALSE(r.reject());
}

TEST(KruskalWallisTest, AgreesWithMannWhitneyForTwoGroups) {
  const auto a = normal_sample(50, 98, 0.0);
  const auto b = normal_sample(50, 99, 1.5);
  const std::vector<std::vector<double>> groups{a, b};
  const auto kw = kruskal_wallis(groups);
  const auto mw = mann_whitney_u(a, b);
  EXPECT_EQ(kw.reject(), mw.reject());
}

TEST(KruskalWallisTest, Validation) {
  std::vector<std::vector<double>> one{{1.0, 2.0}};
  EXPECT_THROW(kruskal_wallis(one), std::invalid_argument);
  std::vector<std::vector<double>> with_empty{{1.0}, {}};
  EXPECT_THROW(kruskal_wallis(with_empty), std::invalid_argument);
}


// ---- Spearman ----------------------------------------------------------------

TEST(SpearmanTest, PerfectMonotoneIsOne) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> y{10.0, 20.0, 25.0, 100.0, 101.0};  // Nonlinear, monotone.
  const auto r = spearman_correlation(x, y);
  EXPECT_DOUBLE_EQ(r.statistic, 1.0);
  EXPECT_LT(r.p_value, 0.05);
}

TEST(SpearmanTest, PerfectInverseIsMinusOne) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> y{5.0, 4.0, 3.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(spearman_correlation(x, y).statistic, -1.0);
}

TEST(SpearmanTest, IndependentNearZero) {
  Rng rng{101};
  std::vector<double> x(500), y(500);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal(0.0, 1.0);
    y[i] = rng.normal(0.0, 1.0);
  }
  const auto r = spearman_correlation(x, y);
  EXPECT_NEAR(r.statistic, 0.0, 0.1);
  EXPECT_FALSE(r.reject(0.01));
}

TEST(SpearmanTest, NoisyMonotoneDetected) {
  Rng rng{102};
  std::vector<double> x(60), y(60);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<double>(i);
    y[i] = static_cast<double>(i) + rng.normal(0.0, 10.0);
  }
  const auto r = spearman_correlation(x, y);
  EXPECT_GT(r.statistic, 0.5);
  EXPECT_TRUE(r.reject());
}

TEST(SpearmanTest, ConstantInputIsZero) {
  const std::vector<double> x{1.0, 1.0, 1.0, 1.0};
  const std::vector<double> y{1.0, 2.0, 3.0, 4.0};
  const auto r = spearman_correlation(x, y);
  EXPECT_DOUBLE_EQ(r.statistic, 0.0);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);
}

TEST(SpearmanTest, Validation) {
  const std::vector<double> x{1.0, 2.0};
  const std::vector<double> y3{1.0, 2.0, 3.0};
  EXPECT_THROW(spearman_correlation(x, y3), std::invalid_argument);
  EXPECT_THROW(spearman_correlation(x, x), std::invalid_argument);
}

// ---- Shapiro-Wilk calibration sweep: p-values are approximately uniform
// under the null, so rejection rate at alpha=0.05 should be near 5%.
class ShapiroCalibrationTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShapiroCalibrationTest, FalsePositiveRateNearAlpha) {
  const std::size_t n = GetParam();
  Rng rng{99};
  int rejections = 0;
  constexpr int kTrials = 400;
  std::vector<double> xs(n);
  for (int t = 0; t < kTrials; ++t) {
    for (auto& x : xs) x = rng.normal(0.0, 1.0);
    if (shapiro_wilk(xs).reject(0.05)) ++rejections;
  }
  const double rate = static_cast<double>(rejections) / kTrials;
  EXPECT_LT(rate, 0.12) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(SampleSizes, ShapiroCalibrationTest,
                         ::testing::Values(10, 25, 50, 100, 500));

}  // namespace
}  // namespace cloudrepro::stats
