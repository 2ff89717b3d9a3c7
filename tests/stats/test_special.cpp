#include "stats/special.h"

#include <gtest/gtest.h>

#include <cmath>

namespace cloudrepro::stats {
namespace {

TEST(SpecialTest, NormalCdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959963985), 0.975, 1e-9);
  EXPECT_NEAR(normal_cdf(-1.959963985), 0.025, 1e-9);
  EXPECT_NEAR(normal_cdf(3.0), 0.9986501, 1e-6);
}

TEST(SpecialTest, NormalQuantileInvertsCdf) {
  for (double p : {0.001, 0.025, 0.1, 0.3, 0.5, 0.7, 0.9, 0.975, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-10) << "p=" << p;
  }
}

TEST(SpecialTest, NormalQuantileKnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(normal_quantile(0.975), 1.959963985, 1e-8);
}

TEST(SpecialTest, NormalQuantileThrowsOutsideOpenInterval) {
  EXPECT_THROW(normal_quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(normal_quantile(1.1), std::invalid_argument);
}

TEST(SpecialTest, IncompleteBetaBoundaries) {
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 1.0), 1.0);
}

TEST(SpecialTest, IncompleteBetaUniformCase) {
  // I_x(1, 1) = x.
  for (double x : {0.1, 0.42, 0.9}) {
    EXPECT_NEAR(incomplete_beta(1.0, 1.0, x), x, 1e-12);
  }
}

TEST(SpecialTest, IncompleteBetaSymmetry) {
  // I_x(a, b) = 1 - I_{1-x}(b, a).
  EXPECT_NEAR(incomplete_beta(2.5, 4.0, 0.3),
              1.0 - incomplete_beta(4.0, 2.5, 0.7), 1e-12);
}

TEST(SpecialTest, IncompleteBetaThrowsOnBadShape) {
  EXPECT_THROW(incomplete_beta(0.0, 1.0, 0.5), std::invalid_argument);
}

TEST(SpecialTest, IncompleteGammaKnownValues) {
  // P(1, x) = 1 - exp(-x).
  for (double x : {0.5, 1.0, 3.0}) {
    EXPECT_NEAR(incomplete_gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-10);
  }
  EXPECT_DOUBLE_EQ(incomplete_gamma_p(2.0, 0.0), 0.0);
}

TEST(SpecialTest, StudentTCdfSymmetricAtZero) {
  EXPECT_NEAR(student_t_cdf(0.0, 5.0), 0.5, 1e-12);
  EXPECT_NEAR(student_t_cdf(2.0, 10.0) + student_t_cdf(-2.0, 10.0), 1.0, 1e-12);
}

TEST(SpecialTest, StudentTCdfKnownValue) {
  // t = 2.228 is the 97.5% point of t(10).
  EXPECT_NEAR(student_t_cdf(2.228, 10.0), 0.975, 1e-3);
}

TEST(SpecialTest, StudentTApproachesNormalForLargeDf) {
  EXPECT_NEAR(student_t_cdf(1.96, 100000.0), normal_cdf(1.96), 1e-4);
}

TEST(SpecialTest, ChiSquaredCdfKnownValues) {
  // Chi2(2) is exponential with mean 2: CDF(x) = 1 - exp(-x/2).
  EXPECT_NEAR(chi_squared_cdf(2.0, 2.0), 1.0 - std::exp(-1.0), 1e-10);
  // 95% point of chi2(3) is 7.815.
  EXPECT_NEAR(chi_squared_cdf(7.815, 3.0), 0.95, 1e-3);
}

TEST(SpecialTest, LogBinomialCoefficient) {
  EXPECT_NEAR(std::exp(log_binomial_coefficient(5, 2)), 10.0, 1e-9);
  EXPECT_NEAR(std::exp(log_binomial_coefficient(10, 0)), 1.0, 1e-9);
  EXPECT_TRUE(std::isinf(log_binomial_coefficient(3, 5)));
}

TEST(SpecialTest, BinomialCdfMatchesHandComputation) {
  // X ~ Binomial(3, 0.5): P(X<=1) = 1/8 + 3/8 = 0.5.
  EXPECT_NEAR(binomial_cdf(1, 3, 0.5), 0.5, 1e-12);
  EXPECT_NEAR(binomial_cdf(0, 4, 0.5), 1.0 / 16.0, 1e-12);
}

TEST(SpecialTest, BinomialCdfBoundaries) {
  EXPECT_DOUBLE_EQ(binomial_cdf(-1, 10, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(binomial_cdf(10, 10, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(binomial_cdf(5, 10, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_cdf(9, 10, 1.0), 0.0);
}

TEST(SpecialTest, BinomialCdfMonotoneInK) {
  double prev = 0.0;
  for (long long k = 0; k <= 20; ++k) {
    const double c = binomial_cdf(k, 20, 0.3);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_NEAR(prev, 1.0, 1e-12);
}

TEST(SpecialTest, BinomialCdfThrowsOnBadArgs) {
  EXPECT_THROW(binomial_cdf(1, -1, 0.5), std::invalid_argument);
  EXPECT_THROW(binomial_cdf(1, 10, 1.5), std::invalid_argument);
}

// Property sweep: binomial CDF matches the normal approximation for large n.
class BinomialNormalApproxTest
    : public ::testing::TestWithParam<std::pair<long long, double>> {};

TEST_P(BinomialNormalApproxTest, CloseToNormalApproximation) {
  const auto [n, p] = GetParam();
  const double mu = static_cast<double>(n) * p;
  const double sigma = std::sqrt(mu * (1.0 - p));
  const auto k = static_cast<long long>(mu);
  const double exact = binomial_cdf(k, n, p);
  const double approx = normal_cdf((static_cast<double>(k) + 0.5 - mu) / sigma);
  EXPECT_NEAR(exact, approx, 0.01) << "n=" << n << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    LargeN, BinomialNormalApproxTest,
    ::testing::Values(std::pair<long long, double>{500, 0.5},
                      std::pair<long long, double>{1000, 0.3},
                      std::pair<long long, double>{2000, 0.7},
                      std::pair<long long, double>{5000, 0.5}));

}  // namespace
}  // namespace cloudrepro::stats
