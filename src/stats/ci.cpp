#include "stats/ci.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "stats/descriptive.h"
#include "stats/special.h"

namespace cloudrepro::stats {

double ConfidenceInterval::relative_half_width() const noexcept {
  // A zero estimate makes the relative criterion undefined. Returning 0.0
  // here (the old behavior) made a degenerate zero-quantile CI read as
  // "within any bound", so adaptive CONFIRM stopping would terminate a
  // zero-valued scenario after one repetition. Report the interval as
  // infinitely wide instead so the degenerate case can never converge.
  if (estimate == 0.0) return std::numeric_limits<double>::infinity();
  return 0.5 * (upper - lower) / std::fabs(estimate);
}

ConfidenceInterval quantile_ci(std::span<const double> xs, double q, double confidence) {
  if (xs.empty()) throw std::invalid_argument{"quantile_ci: empty sample"};
  return quantile_ci_sorted(sorted(xs), q, confidence);
}

ConfidenceInterval quantile_ci_sorted(std::span<const double> s, double q,
                                      double confidence) {
  if (s.empty()) throw std::invalid_argument{"quantile_ci: empty sample"};
  if (q <= 0.0 || q >= 1.0) throw std::invalid_argument{"quantile_ci: q must be in (0, 1)"};
  if (confidence <= 0.0 || confidence >= 1.0) {
    throw std::invalid_argument{"quantile_ci: confidence must be in (0, 1)"};
  }

  const auto n = static_cast<long long>(s.size());

  ConfidenceInterval ci;
  ci.confidence = confidence;
  ci.estimate = quantile_sorted(s, q);

  const double alpha = 1.0 - confidence;

  // Order-statistic indices (1-based). The number of samples <= Q_q is
  // Binomial(n, q). We need the largest j with P(X < j) <= alpha/2, i.e.
  // BinomCdf(j - 1) <= alpha/2, and the smallest k with
  // P(X >= k) <= alpha/2, i.e. BinomCdf(k - 1) >= 1 - alpha/2.
  //
  // One pass walks the CDF upward and stops at k. `sum` adds the pmf terms
  // binomial_cdf adds (same expression, same ascending order), so each
  // clamped partial sum is bit-equal to binomial_cdf(i, n, q), and so are
  // j, k and the coverage; an interval costs O(n) terms, not O(n^2).
  const double log_p = std::log(q);
  const double log_q = std::log1p(-q);
  long long j = 0;  // 0 means "no valid lower order statistic".
  long long k = 0;
  double cdf_j = 0.0;  // BinomCdf(j - 1).
  double cdf_k = 0.0;  // BinomCdf(k - 1).
  double sum = 0.0;
  for (long long i = 0; i < n && k == 0; ++i) {
    sum += std::exp(log_binomial_coefficient(n, i) + static_cast<double>(i) * log_p +
                    static_cast<double>(n - i) * log_q);
    const double cdf = std::min(sum, 1.0);
    // The CDF never decreases, so the indices with cdf <= alpha/2 form a
    // prefix and the first cdf >= 1 - alpha/2 comes after it.
    if (cdf <= alpha / 2.0) {
      j = i + 1;
      cdf_j = cdf;
    } else if (cdf >= 1.0 - alpha / 2.0) {
      k = i + 1;
      cdf_k = cdf;
    }
  }

  if (j == 0 || k == 0) {
    // Sample too small for a two-sided distribution-free interval
    // (e.g. n = 3 for the median at 95%).
    ci.valid = false;
    ci.lower = s.front();
    ci.upper = s.back();
    return ci;
  }

  ci.lower = s[static_cast<std::size_t>(j - 1)];
  ci.upper = s[static_cast<std::size_t>(k - 1)];
  // Achieved coverage: P(j <= X < k) over the binomial counts.
  ci.confidence = cdf_k - cdf_j;
  ci.valid = true;
  return ci;
}

ConfidenceInterval median_ci(std::span<const double> xs, double confidence) {
  return quantile_ci(xs, 0.5, confidence);
}

std::size_t min_samples_for_quantile_ci(double q, double confidence) {
  const double alpha = 1.0 - confidence;
  for (std::size_t n = 2; n < 100000; ++n) {
    // quantile_ci uses symmetric tails: the widest feasible interval is
    // [x_(1), x_(n)], which requires BinomCdf(0) = (1-q)^n <= alpha/2 for the
    // lower index and 1 - BinomCdf(n-1) = q^n <= alpha/2 for the upper one.
    const auto nd = static_cast<double>(n);
    const bool lower_ok = std::pow(1.0 - q, nd) <= alpha / 2.0;
    const bool upper_ok = std::pow(q, nd) <= alpha / 2.0;
    if (lower_ok && upper_ok) return n;
  }
  throw std::runtime_error{"min_samples_for_quantile_ci: no feasible n below 100000"};
}

}  // namespace cloudrepro::stats
