#pragma once

namespace cloudrepro::stats {

/// Special functions required by the hypothesis tests and the non-parametric
/// confidence-interval machinery. All implementations are self-contained
/// (Lentz continued fractions / Abramowitz-Stegun style approximations) so
/// the library has no dependency beyond the C++ standard library.

/// Regularized incomplete beta function I_x(a, b) for a,b > 0, x in [0,1].
double incomplete_beta(double a, double b, double x);

/// Regularized lower incomplete gamma P(a, x).
double incomplete_gamma_p(double a, double x);

/// Standard normal cumulative distribution function.
double normal_cdf(double z);

/// Inverse standard normal CDF (Acklam's rational approximation, refined by
/// one Halley step; |error| < 1e-12 over (0,1)).
double normal_quantile(double p);

/// Student's t distribution CDF with `df` degrees of freedom.
double student_t_cdf(double t, double df);

/// Chi-squared distribution CDF with `df` degrees of freedom.
double chi_squared_cdf(double x, double df);

/// Binomial CDF: P(X <= k) for X ~ Binomial(n, p). Exact for n <= 2^20 via
/// log-space pmf accumulation.
double binomial_cdf(long long k, long long n, double p);

/// Log of the binomial coefficient C(n, k).
double log_binomial_coefficient(long long n, long long k);

}  // namespace cloudrepro::stats
