#pragma once

#include <span>
#include <vector>

namespace cloudrepro::stats {

/// Outcome of a statistical hypothesis test.
struct TestResult {
  double statistic = 0.0;
  double p_value = 1.0;

  /// True when the null hypothesis is rejected at the given significance.
  bool reject(double alpha = 0.05) const noexcept { return p_value < alpha; }
};

/// Shapiro-Wilk W test for normality (Royston's AS R94 approximation).
/// The paper (F5.4) recommends testing samples for normality [54] before
/// applying parametric statistics. Valid for 3 <= n <= 5000.
/// Null hypothesis: the sample is drawn from a normal distribution.
TestResult shapiro_wilk(std::span<const double> xs);

/// Mann-Whitney U rank-sum test [45] with tie correction and normal
/// approximation. Null hypothesis: the two samples come from the same
/// distribution (used to compare repeated experiment batches — if an early
/// batch and a late batch differ, runs were not identically distributed).
TestResult mann_whitney_u(std::span<const double> a, std::span<const double> b);

/// Two-sample Kolmogorov-Smirnov test with the asymptotic p-value.
/// Sensitive to any distributional difference (location, scale, shape) —
/// the right tool for F5.1's cross-cloud sensitivity analysis, where entire
/// bandwidth distributions are compared, not just their centers.
/// Null hypothesis: both samples come from the same distribution.
TestResult kolmogorov_smirnov(std::span<const double> a, std::span<const double> b);

/// Wald-Wolfowitz runs test for independence: counts runs above/below the
/// median. A token-bucket-shaped series (long runs of "fast" then "slow")
/// fails this test, which is exactly the non-i.i.d. behaviour of Figure 19.
/// Null hypothesis: observations are independent.
TestResult runs_test(std::span<const double> xs);

/// (Augmented) Dickey-Fuller unit-root test [22] for stationarity, with a
/// constant term and `lags` lagged differences.
/// Null hypothesis: the series has a unit root (is NON-stationary); so
/// reject() == true means the series looks stationary.
/// The p-value is interpolated from the standard Dickey-Fuller critical
/// values for the constant-only model.
TestResult adf_test(std::span<const double> xs, int lags = 1);

/// Kruskal-Wallis H test: the non-parametric counterpart of one-way ANOVA,
/// for the common cloud case where runtimes are nothing like normal (F5.4).
/// Null hypothesis: all groups come from the same distribution.
/// Chi-squared approximation with tie correction.
TestResult kruskal_wallis(std::span<const std::vector<double>> groups);

/// Spearman rank correlation coefficient between paired observations, with
/// a t-approximation p-value against the null of no monotone association.
/// Used to quantify ordered relationships the paper states qualitatively,
/// e.g. "queries with higher network demands exhibit more sensitivity to
/// the budget" (Figure 17).
TestResult spearman_correlation(std::span<const double> x, std::span<const double> y);

/// Lag-k sample autocorrelation coefficient.
double autocorrelation(std::span<const double> xs, std::size_t lag);

/// Ljung-Box portmanteau test over autocorrelations up to `max_lag`.
/// Null hypothesis: the series is white noise (no autocorrelation).
TestResult ljung_box(std::span<const double> xs, std::size_t max_lag);

}  // namespace cloudrepro::stats
