#pragma once

#include <cstddef>
#include <span>

#include "stats/rng.h"

namespace cloudrepro::stats {

/// A two-sided confidence interval around a point estimate.
struct ConfidenceInterval {
  double lower = 0.0;
  double estimate = 0.0;
  double upper = 0.0;
  double confidence = 0.95;  ///< Achieved (>= requested) confidence level.
  bool valid = false;        ///< False when the sample is too small (see below).

  double width() const noexcept { return upper - lower; }

  /// Half-width relative to the estimate — the paper's "error bound"
  /// criterion (1% in Figure 13, 10% in Figure 19).
  double relative_half_width() const noexcept;

  bool contains(double value) const noexcept { return value >= lower && value <= upper; }
};

/// Non-parametric (distribution-free) confidence interval for the q-quantile
/// using binomial order statistics — the method of Le Boudec [11] that the
/// paper uses for both medians (Figures 3a, 13, 19) and the 90th percentile
/// tail (Figure 3b).
///
/// The interval is [x_(j), x_(k)] with indices chosen so that
/// P(x_(j) <= Q_q <= x_(k)) >= `confidence` under Binomial(n, q) coverage.
/// Requires enough samples for the interval to exist at all: e.g. the median
/// needs n >= 6 at 95% — which is precisely why the paper notes that "three
/// repetitions are insufficient to calculate CIs" (Figure 3 caption). When
/// the sample is too small, `valid` is false and only `estimate` is set.
ConfidenceInterval quantile_ci(std::span<const double> xs, double q,
                               double confidence = 0.95);

/// Same as `quantile_ci` but requires `xs` already sorted ascending. One
/// pass over the binomial CDF finds both order-statistic indices, so an
/// interval costs O(n); CONFIRM's prefix sweep and `ConfirmMonitor` keep
/// one sorted sample and call this to skip a re-sort per repetition.
ConfidenceInterval quantile_ci_sorted(std::span<const double> xs, double q,
                                      double confidence = 0.95);

/// Convenience wrapper: non-parametric CI for the median.
ConfidenceInterval median_ci(std::span<const double> xs, double confidence = 0.95);

/// Bootstrap percentile CI for an arbitrary statistic of the sample. Used as
/// a cross-check of the order-statistic method in tests and ablations.
template <typename Statistic>
ConfidenceInterval bootstrap_ci(std::span<const double> xs, Statistic statistic,
                                Rng& rng, double confidence = 0.95,
                                std::size_t resamples = 2000);

/// Minimum sample size for which a two-sided non-parametric CI of the
/// q-quantile exists at the given confidence level.
std::size_t min_samples_for_quantile_ci(double q, double confidence = 0.95);

}  // namespace cloudrepro::stats

// ---- template implementation -----------------------------------------------

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace cloudrepro::stats {

template <typename Statistic>
ConfidenceInterval bootstrap_ci(std::span<const double> xs, Statistic statistic,
                                Rng& rng, double confidence, std::size_t resamples) {
  if (xs.empty()) throw std::invalid_argument{"bootstrap_ci: empty sample"};
  std::vector<double> stat_values;
  stat_values.reserve(resamples);
  std::vector<double> resample(xs.size());
  for (std::size_t r = 0; r < resamples; ++r) {
    for (auto& v : resample) {
      v = xs[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(xs.size()) - 1))];
    }
    stat_values.push_back(statistic(std::span<const double>{resample}));
  }
  std::sort(stat_values.begin(), stat_values.end());
  const double alpha = 1.0 - confidence;
  ConfidenceInterval ci;
  ci.confidence = confidence;
  ci.estimate = statistic(xs);
  const auto idx = [&](double p) {
    const auto i = static_cast<std::size_t>(p * static_cast<double>(stat_values.size() - 1));
    return stat_values[std::min(i, stat_values.size() - 1)];
  };
  ci.lower = idx(alpha / 2.0);
  ci.upper = idx(1.0 - alpha / 2.0);
  ci.valid = true;
  return ci;
}

}  // namespace cloudrepro::stats
