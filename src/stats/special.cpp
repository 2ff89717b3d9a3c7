#include "stats/special.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace cloudrepro::stats {

namespace {

/// std::lgamma writes the global `signgam` and is therefore not
/// thread-safe; campaigns evaluate CIs on these functions concurrently.
/// The reentrant lgamma_r returns bit-identical values.
double lgamma_ts(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

/// Continued-fraction kernel for the incomplete beta (Lentz's method).
double beta_continued_fraction(double a, double b, double x) {
  constexpr int kMaxIterations = 300;
  constexpr double kEpsilon = 3e-14;
  constexpr double kTiny = 1e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEpsilon) break;
  }
  return h;
}

}  // namespace

double incomplete_beta(double a, double b, double x) {
  if (a <= 0.0 || b <= 0.0) throw std::invalid_argument{"incomplete_beta: a, b must be positive"};
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_front = lgamma_ts(a + b) - lgamma_ts(a) - lgamma_ts(b) +
                          a * std::log(x) + b * std::log1p(-x);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_continued_fraction(a, b, x) / a;
  }
  return 1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b;
}

double incomplete_gamma_p(double a, double x) {
  if (a <= 0.0) throw std::invalid_argument{"incomplete_gamma_p: a must be positive"};
  if (x <= 0.0) return 0.0;
  if (x < a + 1.0) {
    // Series representation.
    double ap = a;
    double sum = 1.0 / a;
    double del = sum;
    for (int n = 0; n < 500; ++n) {
      ap += 1.0;
      del *= x / ap;
      sum += del;
      if (std::fabs(del) < std::fabs(sum) * 3e-15) break;
    }
    return sum * std::exp(-x + a * std::log(x) - lgamma_ts(a));
  }
  // Continued fraction for Q(a, x), then P = 1 - Q.
  constexpr double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < 3e-15) break;
  }
  const double q = std::exp(-x + a * std::log(x) - lgamma_ts(a)) * h;
  return 1.0 - q;
}

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double normal_quantile(double p) {
  if (p <= 0.0 || p >= 1.0) {
    if (p == 0.0) return -std::numeric_limits<double>::infinity();
    if (p == 1.0) return std::numeric_limits<double>::infinity();
    throw std::invalid_argument{"normal_quantile: p must be in (0, 1)"};
  }
  // Acklam's rational approximation.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log1p(-p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement step using the analytic CDF.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(x * x / 2.0);
  x = x - u / (1.0 + x * u / 2.0);
  return x;
}

double student_t_cdf(double t, double df) {
  if (df <= 0.0) throw std::invalid_argument{"student_t_cdf: df must be positive"};
  const double x = df / (df + t * t);
  const double tail = 0.5 * incomplete_beta(df / 2.0, 0.5, x);
  return t > 0.0 ? 1.0 - tail : tail;
}

double chi_squared_cdf(double x, double df) {
  if (df <= 0.0) throw std::invalid_argument{"chi_squared_cdf: df must be positive"};
  if (x <= 0.0) return 0.0;
  return incomplete_gamma_p(df / 2.0, x / 2.0);
}

double log_binomial_coefficient(long long n, long long k) {
  if (k < 0 || k > n) return -std::numeric_limits<double>::infinity();
  return lgamma_ts(static_cast<double>(n) + 1.0) -
         lgamma_ts(static_cast<double>(k) + 1.0) -
         lgamma_ts(static_cast<double>(n - k) + 1.0);
}

double binomial_cdf(long long k, long long n, double p) {
  if (n < 0) throw std::invalid_argument{"binomial_cdf: n must be non-negative"};
  if (p < 0.0 || p > 1.0) throw std::invalid_argument{"binomial_cdf: p must be in [0, 1]"};
  if (k < 0) return 0.0;
  if (k >= n) return 1.0;
  if (p == 0.0) return 1.0;
  if (p == 1.0) return 0.0;  // k < n here.
  const double log_p = std::log(p);
  const double log_q = std::log1p(-p);
  double cdf = 0.0;
  for (long long i = 0; i <= k; ++i) {
    const double log_pmf = log_binomial_coefficient(n, i) +
                           static_cast<double>(i) * log_p +
                           static_cast<double>(n - i) * log_q;
    cdf += std::exp(log_pmf);
  }
  return std::min(cdf, 1.0);
}

}  // namespace cloudrepro::stats
