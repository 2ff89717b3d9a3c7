#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cloudrepro::stats {

namespace {

/// Every `Summary` field but the median, in one pass over `xs` in index
/// order: a naive left-to-right sum, whose quotient is the mean, and the
/// Youngs–Cramér running sum of squared deviations, which tracks the
/// two-pass variance within a few ulps on well-conditioned data. Published
/// summaries and goldens pin these bits, so the operations and their order
/// must not change.
Summary moments(std::span<const double> xs) noexcept {
  Summary s;
  double sum = 0.0;
  double m2 = 0.0;
  for (const double x : xs) {
    ++s.count;
    sum += x;
    if (s.count == 1) {
      s.min = s.max = x;
    } else {
      if (x < s.min) s.min = x;
      if (x > s.max) s.max = x;
      // With the running sum T_n including x: M2 += (n x - T_n)^2 / (n (n-1)).
      const double n = static_cast<double>(s.count);
      const double d = n * x - sum;
      m2 += d * d / (n * (n - 1.0));
    }
  }
  if (s.count > 0) s.mean = sum / static_cast<double>(s.count);
  if (s.count > 1) s.variance = m2 / static_cast<double>(s.count - 1);
  s.stddev = std::sqrt(s.variance);
  s.coefficient_of_variation = s.mean == 0.0 ? 0.0 : s.stddev / s.mean;
  return s;
}

}  // namespace

double mean(std::span<const double> xs) noexcept { return moments(xs).mean; }

double variance(std::span<const double> xs) noexcept {
  return moments(xs).variance;
}

double stddev(std::span<const double> xs) noexcept { return moments(xs).stddev; }

double coefficient_of_variation(std::span<const double> xs) noexcept {
  return moments(xs).coefficient_of_variation;
}

std::vector<double> sorted(std::span<const double> xs) {
  std::vector<double> copy{xs.begin(), xs.end()};
  std::sort(copy.begin(), copy.end());
  return copy;
}

double quantile_sorted(std::span<const double> s, double q) {
  if (s.empty()) throw std::invalid_argument{"quantile: empty sample"};
  if (q < 0.0 || q > 1.0) throw std::invalid_argument{"quantile: q must be in [0, 1]"};
  if (s.size() == 1) return s[0];
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return s[lo] + frac * (s[hi] - s[lo]);
}

double quantile(std::span<const double> xs, double q) {
  const auto s = sorted(xs);
  return quantile_sorted(s, q);
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

Summary summarize(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument{"summarize: empty sample"};
  Summary s = moments(xs);
  s.median = quantile(xs, 0.5);
  return s;
}

BoxStats box_stats(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument{"box_stats: empty sample"};
  const auto s = sorted(xs);
  BoxStats b;
  b.p1 = quantile_sorted(s, 0.01);
  b.p25 = quantile_sorted(s, 0.25);
  b.p50 = quantile_sorted(s, 0.50);
  b.p75 = quantile_sorted(s, 0.75);
  b.p99 = quantile_sorted(s, 0.99);
  return b;
}

}  // namespace cloudrepro::stats
