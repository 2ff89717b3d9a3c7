#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace cloudrepro::stats {

/// Empirical cumulative distribution function — the paper plots EC2
/// bandwidth as a CDF in Figure 6.
class Ecdf {
 public:
  explicit Ecdf(std::span<const double> xs);

  /// P(X <= x).
  double operator()(double x) const noexcept;

  /// Inverse: the smallest sample value v with ECDF(v) >= p.
  double inverse(double p) const;

  std::size_t size() const noexcept { return sorted_.size(); }

  /// Evaluates the CDF at `points` evenly spaced values across the sample
  /// range; convenient for emitting plot series.
  std::vector<std::pair<double, double>> curve(std::size_t points = 100) const;

 private:
  std::vector<double> sorted_;
};

}  // namespace cloudrepro::stats
