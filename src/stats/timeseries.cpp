#include "stats/timeseries.h"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.h"

namespace cloudrepro::stats {

std::vector<double> sample_to_sample_variability(std::span<const double> xs) {
  std::vector<double> out;
  if (xs.size() < 2) return out;
  out.reserve(xs.size() - 1);
  for (std::size_t t = 1; t < xs.size(); ++t) {
    const double prev = xs[t - 1];
    if (prev == 0.0) {
      out.push_back(0.0);
    } else {
      out.push_back(std::fabs(xs[t] - prev) / std::fabs(prev));
    }
  }
  return out;
}

double max_sample_to_sample_variability(std::span<const double> xs) {
  const auto changes = sample_to_sample_variability(xs);
  if (changes.empty()) return 0.0;
  return *std::max_element(changes.begin(), changes.end());
}

std::vector<double> windowed_medians(std::span<const double> xs, std::size_t window) {
  std::vector<double> out;
  if (window == 0 || xs.size() < window) return out;
  out.reserve(xs.size() / window);
  for (std::size_t start = 0; start + window <= xs.size(); start += window) {
    out.push_back(median(xs.subspan(start, window)));
  }
  return out;
}

std::size_t longest_run_around_median(std::span<const double> xs) {
  if (xs.size() < 2) return xs.size();
  const double med = median(xs);
  std::size_t longest = 0;
  std::size_t current = 0;
  int prev_sign = 0;
  for (const double x : xs) {
    const int sign = x > med ? 1 : (x < med ? -1 : 0);
    if (sign == 0) {
      prev_sign = 0;
      current = 0;
      continue;
    }
    current = (sign == prev_sign) ? current + 1 : 1;
    prev_sign = sign;
    longest = std::max(longest, current);
  }
  return longest;
}

}  // namespace cloudrepro::stats
