#include "stats/streaming.h"

#include <cmath>

#include "stats/special.h"

namespace cloudrepro::stats {

void StreamingMoments::merge(const StreamingMoments& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  // Chan et al.: M2 = M2a + M2b + delta^2 * na * nb / (na + nb),
  // delta expressed via the means to avoid overflow on large sums.
  const double delta = sum_ / na - other.sum_ / nb;
  m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
  sum_ += other.sum_;
  n_ += other.n_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  cached_ = 0;
}

double StreamingMoments::variance() const noexcept {
  if (!is_cached(kVariance)) {
    cached_variance_ = n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
    cached_ |= kVariance;
  }
  return cached_variance_;
}

double StreamingMoments::stddev() const noexcept {
  if (!is_cached(kStddev)) {
    cached_stddev_ = std::sqrt(variance());
    cached_ |= kStddev;
  }
  return cached_stddev_;
}

double StreamingMoments::coefficient_of_variation() const noexcept {
  if (!is_cached(kCov)) {
    const double m = mean();
    cached_cov_ = m == 0.0 ? 0.0 : stddev() / m;
    cached_ |= kCov;
  }
  return cached_cov_;
}

double StreamingMoments::standard_error() const noexcept {
  if (!is_cached(kStderr)) {
    cached_stderr_ =
        n_ < 2 ? 0.0 : stddev() / std::sqrt(static_cast<double>(n_));
    cached_ |= kStderr;
  }
  return cached_stderr_;
}

TestResult welch_t_test(const StreamingMoments& a, const StreamingMoments& b) {
  TestResult result{};
  if (a.count() < 2 || b.count() < 2) return result;
  const double na = static_cast<double>(a.count());
  const double nb = static_cast<double>(b.count());
  const double va = a.variance() / na;
  const double vb = b.variance() / nb;
  const double se2 = va + vb;
  if (se2 <= 0.0) {
    // Both samples constant: identical means -> p = 1, else certain reject.
    result.p_value = a.mean() == b.mean() ? 1.0 : 0.0;
    result.statistic = a.mean() == b.mean() ? 0.0 : HUGE_VAL;
    return result;
  }
  result.statistic = (a.mean() - b.mean()) / std::sqrt(se2);
  // Welch–Satterthwaite degrees of freedom.
  const double dof =
      se2 * se2 / (va * va / (na - 1.0) + vb * vb / (nb - 1.0));
  const double t = std::fabs(result.statistic);
  result.p_value = 2.0 * (1.0 - student_t_cdf(t, dof));
  return result;
}

TestResult z_test(const StreamingMoments& a, const StreamingMoments& b) {
  TestResult result{};
  if (a.count() < 2 || b.count() < 2) return result;
  const double se2 = a.variance() / static_cast<double>(a.count()) +
                     b.variance() / static_cast<double>(b.count());
  if (se2 <= 0.0) {
    result.p_value = a.mean() == b.mean() ? 1.0 : 0.0;
    result.statistic = a.mean() == b.mean() ? 0.0 : HUGE_VAL;
    return result;
  }
  result.statistic = (a.mean() - b.mean()) / std::sqrt(se2);
  result.p_value = 2.0 * (1.0 - normal_cdf(std::fabs(result.statistic)));
  return result;
}

}  // namespace cloudrepro::stats
