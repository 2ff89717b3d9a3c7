#include "stats/ecdf.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cloudrepro::stats {

Ecdf::Ecdf(std::span<const double> xs) : sorted_{xs.begin(), xs.end()} {
  if (sorted_.empty()) throw std::invalid_argument{"Ecdf: empty sample"};
  std::sort(sorted_.begin(), sorted_.end());
}

double Ecdf::operator()(double x) const noexcept {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

double Ecdf::inverse(double p) const {
  // Negated comparison so NaN fails the range check instead of reaching the
  // ceil-and-cast below (casting NaN to an integer is UB).
  if (!(p >= 0.0 && p <= 1.0)) throw std::invalid_argument{"Ecdf::inverse: p must be in [0, 1]"};
  if (p == 0.0) return sorted_.front();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted_.size())));
  return sorted_[std::min(rank == 0 ? 0 : rank - 1, sorted_.size() - 1)];
}

std::vector<std::pair<double, double>> Ecdf::curve(std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (points < 2) points = 2;
  out.reserve(points);
  const double lo = sorted_.front();
  const double hi = sorted_.back();
  for (std::size_t i = 0; i < points; ++i) {
    const double x = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(points - 1);
    out.emplace_back(x, (*this)(x));
  }
  return out;
}

}  // namespace cloudrepro::stats
