#include "stats/hypothesis.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "stats/descriptive.h"
#include "stats/special.h"

namespace cloudrepro::stats {

namespace {

double polyval(std::span<const double> coeffs, double x) {
  // coeffs[0] + coeffs[1] * x + coeffs[2] * x^2 + ...
  double result = 0.0;
  for (auto it = coeffs.rbegin(); it != coeffs.rend(); ++it) result = result * x + *it;
  return result;
}

/// Solves the small dense system A x = b by Gaussian elimination with
/// partial pivoting. Used by the ADF regression; dimensions are tiny.
std::vector<double> solve_linear_system(std::vector<std::vector<double>> a,
                                        std::vector<double> b) {
  const std::size_t n = b.size();
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row) {
      if (std::fabs(a[row][col]) > std::fabs(a[pivot][col])) pivot = row;
    }
    if (std::fabs(a[pivot][col]) < 1e-12) {
      throw std::runtime_error{"solve_linear_system: singular matrix"};
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (std::size_t row = col + 1; row < n; ++row) {
      const double factor = a[row][col] / a[col][col];
      for (std::size_t k = col; k < n; ++k) a[row][k] -= factor * a[col][k];
      b[row] -= factor * b[col];
    }
  }
  std::vector<double> x(n);
  for (std::size_t i = n; i-- > 0;) {
    double sum = b[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= a[i][k] * x[k];
    x[i] = sum / a[i][i];
  }
  return x;
}

/// Mid-ranks of the combined sample; ties get the average rank.
std::vector<double> mid_ranks(const std::vector<double>& values) {
  const std::size_t n = values.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t i, std::size_t j) { return values[i] < values[j]; });
  std::vector<double> ranks(n);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    const double avg_rank = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = avg_rank;
    i = j + 1;
  }
  return ranks;
}

}  // namespace

TestResult shapiro_wilk(std::span<const double> xs) {
  const auto n = xs.size();
  if (n < 3) throw std::invalid_argument{"shapiro_wilk: need at least 3 samples"};
  if (n > 5000) throw std::invalid_argument{"shapiro_wilk: approximation valid up to n = 5000"};

  auto x = sorted(xs);
  if (x.front() == x.back()) {
    // Degenerate constant sample: definitely not evidence of normality.
    return TestResult{.statistic = 1.0, .p_value = 1.0};
  }

  const auto nd = static_cast<double>(n);

  // Expected values of normal order statistics (Blom's approximation).
  std::vector<double> m(n);
  for (std::size_t i = 0; i < n; ++i) {
    m[i] = normal_quantile((static_cast<double>(i) + 1.0 - 0.375) / (nd + 0.25));
  }
  double m_ss = 0.0;
  for (const double v : m) m_ss += v * v;

  // Royston's polynomial-corrected weights for the two largest order stats.
  std::vector<double> w(n);
  const double rsn = 1.0 / std::sqrt(nd);
  static constexpr double c1[] = {0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056};
  static constexpr double c2[] = {0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633};
  const double wn = m[n - 1] / std::sqrt(m_ss) + polyval(c1, rsn);
  if (n <= 5) {
    const double phi = (m_ss - 2.0 * m[n - 1] * m[n - 1]) / (1.0 - 2.0 * wn * wn);
    for (std::size_t i = 1; i + 1 < n; ++i) w[i] = m[i] / std::sqrt(phi);
    w[n - 1] = wn;
    w[0] = -wn;
  } else {
    const double wn1 = m[n - 2] / std::sqrt(m_ss) + polyval(c2, rsn);
    const double phi = (m_ss - 2.0 * m[n - 1] * m[n - 1] - 2.0 * m[n - 2] * m[n - 2]) /
                       (1.0 - 2.0 * wn * wn - 2.0 * wn1 * wn1);
    for (std::size_t i = 2; i + 2 < n; ++i) w[i] = m[i] / std::sqrt(phi);
    w[n - 1] = wn;
    w[n - 2] = wn1;
    w[0] = -wn;
    w[1] = -wn1;
  }

  const double xbar = mean(x);
  double numerator = 0.0;
  double denominator = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    numerator += w[i] * x[i];
    const double d = x[i] - xbar;
    denominator += d * d;
  }
  double w_stat = numerator * numerator / denominator;
  w_stat = std::min(w_stat, 1.0);

  // Normalizing transformation of (1 - W) -> z, per Royston 1992.
  double p_value;
  if (n == 3) {
    constexpr double pi6 = 1.90985931710274;  // 6/pi
    constexpr double stqr = 1.04719755119660;  // asin(sqrt(3/4))
    p_value = pi6 * (std::asin(std::sqrt(w_stat)) - stqr);
    p_value = std::clamp(p_value, 0.0, 1.0);
  } else {
    const double lw = std::log(1.0 - w_stat);
    double mu, sigma;
    if (n <= 11) {
      const double g = -2.273 + 0.459 * nd;
      mu = 0.5440 - 0.39978 * nd + 0.025054 * nd * nd - 0.0006714 * nd * nd * nd;
      sigma = std::exp(1.3822 - 0.77857 * nd + 0.062767 * nd * nd - 0.0020322 * nd * nd * nd);
      const double z = (-std::log(g - lw) - mu) / sigma;
      p_value = 1.0 - normal_cdf(z);
    } else {
      const double ln = std::log(nd);
      mu = -1.5861 - 0.31082 * ln - 0.083751 * ln * ln + 0.0038915 * ln * ln * ln;
      sigma = std::exp(-0.4803 - 0.082676 * ln + 0.0030302 * ln * ln);
      const double z = (lw - mu) / sigma;
      p_value = 1.0 - normal_cdf(z);
    }
  }
  return TestResult{.statistic = w_stat, .p_value = std::clamp(p_value, 0.0, 1.0)};
}

TestResult mann_whitney_u(std::span<const double> a, std::span<const double> b) {
  if (a.empty() || b.empty()) throw std::invalid_argument{"mann_whitney_u: empty sample"};
  const auto n1 = static_cast<double>(a.size());
  const auto n2 = static_cast<double>(b.size());

  std::vector<double> combined;
  combined.reserve(a.size() + b.size());
  combined.insert(combined.end(), a.begin(), a.end());
  combined.insert(combined.end(), b.begin(), b.end());
  const auto ranks = mid_ranks(combined);

  double rank_sum_a = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) rank_sum_a += ranks[i];
  const double u1 = rank_sum_a - n1 * (n1 + 1.0) / 2.0;
  const double u = std::min(u1, n1 * n2 - u1);

  // Tie correction for the variance.
  const double n = n1 + n2;
  auto sorted_all = combined;
  std::sort(sorted_all.begin(), sorted_all.end());
  double tie_term = 0.0;
  std::size_t i = 0;
  while (i < sorted_all.size()) {
    std::size_t j = i;
    while (j + 1 < sorted_all.size() && sorted_all[j + 1] == sorted_all[i]) ++j;
    const double t = static_cast<double>(j - i + 1);
    tie_term += t * t * t - t;
    i = j + 1;
  }
  const double mu = n1 * n2 / 2.0;
  const double var =
      n1 * n2 / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
  if (var <= 0.0) return TestResult{.statistic = u, .p_value = 1.0};

  // Continuity-corrected normal approximation, two-sided.
  const double z = (u - mu + 0.5) / std::sqrt(var);
  const double p = std::clamp(2.0 * normal_cdf(z), 0.0, 1.0);
  return TestResult{.statistic = u, .p_value = p};
}

TestResult kolmogorov_smirnov(std::span<const double> a, std::span<const double> b) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument{"kolmogorov_smirnov: empty sample"};
  }
  const auto sa = sorted(a);
  const auto sb = sorted(b);
  const auto n1 = static_cast<double>(sa.size());
  const auto n2 = static_cast<double>(sb.size());

  // Sweep the merged order statistics tracking the ECDF gap.
  double d_stat = 0.0;
  std::size_t i = 0, j = 0;
  while (i < sa.size() && j < sb.size()) {
    const double x = std::min(sa[i], sb[j]);
    while (i < sa.size() && sa[i] <= x) ++i;
    while (j < sb.size() && sb[j] <= x) ++j;
    const double fa = static_cast<double>(i) / n1;
    const double fb = static_cast<double>(j) / n2;
    d_stat = std::max(d_stat, std::fabs(fa - fb));
  }

  // Asymptotic Kolmogorov distribution:
  // p = 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k^2 lambda^2).
  const double en = std::sqrt(n1 * n2 / (n1 + n2));
  const double lambda = (en + 0.12 + 0.11 / en) * d_stat;
  double p = 0.0;
  double sign = 1.0;
  for (int k = 1; k <= 100; ++k) {
    const double term = std::exp(-2.0 * k * k * lambda * lambda);
    p += sign * term;
    if (term < 1e-12) break;
    sign = -sign;
  }
  p = std::clamp(2.0 * p, 0.0, 1.0);
  return TestResult{.statistic = d_stat, .p_value = p};
}

TestResult runs_test(std::span<const double> xs) {
  if (xs.size() < 4) throw std::invalid_argument{"runs_test: need at least 4 samples"};
  const double med = median(xs);
  std::vector<int> signs;
  signs.reserve(xs.size());
  for (const double x : xs) {
    if (x == med) continue;  // Discard values equal to the median.
    signs.push_back(x > med ? 1 : -1);
  }
  if (signs.size() < 4) return TestResult{.statistic = 0.0, .p_value = 1.0};

  double n_pos = 0.0, n_neg = 0.0;
  for (const int s : signs) (s > 0 ? n_pos : n_neg) += 1.0;
  double runs = 1.0;
  for (std::size_t i = 1; i < signs.size(); ++i) {
    if (signs[i] != signs[i - 1]) runs += 1.0;
  }
  const double n = n_pos + n_neg;
  const double mu = 2.0 * n_pos * n_neg / n + 1.0;
  const double var = (mu - 1.0) * (mu - 2.0) / (n - 1.0);
  if (var <= 0.0) return TestResult{.statistic = runs, .p_value = 1.0};
  const double z = (runs - mu) / std::sqrt(var);
  const double p = std::clamp(2.0 * (1.0 - normal_cdf(std::fabs(z))), 0.0, 1.0);
  return TestResult{.statistic = z, .p_value = p};
}

TestResult adf_test(std::span<const double> xs, int lags) {
  if (lags < 0) throw std::invalid_argument{"adf_test: lags must be non-negative"};
  const auto n = static_cast<long long>(xs.size());
  const long long usable = n - 1 - lags;
  const long long n_params = 2 + lags;  // constant, y_{t-1}, lagged diffs
  if (usable < n_params + 3) {
    throw std::invalid_argument{"adf_test: series too short for requested lags"};
  }

  // A (near-)constant series is trivially stationary; the regression would
  // be singular. This arises in practice on fully-throttled bandwidth
  // traces pinned at the capped rate.
  {
    const double m = mean(xs);
    double ss = 0.0;
    for (const double x : xs) ss += (x - m) * (x - m);
    const double scale = std::max(1.0, m * m);
    if (ss / static_cast<double>(xs.size()) < 1e-12 * scale) {
      return TestResult{.statistic = -10.0, .p_value = 0.001};
    }
  }

  // Regress dy_t on [1, y_{t-1}, dy_{t-1}, ..., dy_{t-lags}].
  std::vector<double> dy(xs.size() - 1);
  for (std::size_t t = 1; t < xs.size(); ++t) dy[t - 1] = xs[t] - xs[t - 1];

  const auto p = static_cast<std::size_t>(n_params);
  std::vector<std::vector<double>> xtx(p, std::vector<double>(p, 0.0));
  std::vector<double> xty(p, 0.0);
  std::vector<double> row(p);
  const auto start = static_cast<std::size_t>(lags);

  for (std::size_t t = start; t < dy.size(); ++t) {
    row[0] = 1.0;
    row[1] = xs[t];  // y_{t-1} for response dy[t]
    for (int l = 1; l <= lags; ++l) row[1 + static_cast<std::size_t>(l)] = dy[t - static_cast<std::size_t>(l)];
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < p; ++j) xtx[i][j] += row[i] * row[j];
      xty[i] += row[i] * dy[t];
    }
  }

  const auto beta = solve_linear_system(xtx, xty);

  // Residual variance and standard error of the y_{t-1} coefficient.
  double rss = 0.0;
  long long n_obs = 0;
  for (std::size_t t = start; t < dy.size(); ++t) {
    row[0] = 1.0;
    row[1] = xs[t];
    for (int l = 1; l <= lags; ++l) row[1 + static_cast<std::size_t>(l)] = dy[t - static_cast<std::size_t>(l)];
    double fitted = 0.0;
    for (std::size_t i = 0; i < p; ++i) fitted += beta[i] * row[i];
    const double r = dy[t] - fitted;
    rss += r * r;
    ++n_obs;
  }
  const double sigma2 = rss / static_cast<double>(n_obs - n_params);

  // (X'X)^{-1}[1][1] via solving X'X e_1 = unit vector.
  std::vector<double> unit(p, 0.0);
  unit[1] = 1.0;
  const auto inv_col = solve_linear_system(xtx, unit);
  const double se = std::sqrt(sigma2 * inv_col[1]);
  const double t_stat = beta[1] / se;

  // Dickey-Fuller critical values, constant-only model, asymptotic.
  struct CriticalPoint { double t; double p; };
  static constexpr CriticalPoint table[] = {
      {-3.96, 0.001}, {-3.43, 0.01}, {-3.12, 0.025}, {-2.86, 0.05},
      {-2.57, 0.10},  {-2.23, 0.20}, {-1.62, 0.50},  {-0.50, 0.90},
      {0.00, 0.95},   {0.60, 0.99},
  };
  double p_value;
  if (t_stat <= table[0].t) {
    p_value = table[0].p;
  } else if (t_stat >= table[std::size(table) - 1].t) {
    p_value = table[std::size(table) - 1].p;
  } else {
    p_value = table[0].p;
    for (std::size_t i = 1; i < std::size(table); ++i) {
      if (t_stat < table[i].t) {
        const double frac = (t_stat - table[i - 1].t) / (table[i].t - table[i - 1].t);
        p_value = table[i - 1].p + frac * (table[i].p - table[i - 1].p);
        break;
      }
    }
  }
  return TestResult{.statistic = t_stat, .p_value = p_value};
}

TestResult spearman_correlation(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument{"spearman_correlation: size mismatch"};
  }
  if (x.size() < 4) {
    throw std::invalid_argument{"spearman_correlation: need at least 4 pairs"};
  }
  const std::vector<double> xv{x.begin(), x.end()};
  const std::vector<double> yv{y.begin(), y.end()};
  const auto rx = mid_ranks(xv);
  const auto ry = mid_ranks(yv);

  // Pearson correlation of the ranks (handles ties correctly).
  const double mx = mean(rx);
  const double my = mean(ry);
  double cov = 0.0, vx = 0.0, vy = 0.0;
  for (std::size_t i = 0; i < rx.size(); ++i) {
    const double dx = rx[i] - mx;
    const double dy = ry[i] - my;
    cov += dx * dy;
    vx += dx * dx;
    vy += dy * dy;
  }
  if (vx == 0.0 || vy == 0.0) return TestResult{.statistic = 0.0, .p_value = 1.0};
  const double rho = cov / std::sqrt(vx * vy);

  // t-approximation: t = rho * sqrt((n-2)/(1-rho^2)), df = n-2.
  const double n = static_cast<double>(x.size());
  double p;
  if (std::fabs(rho) >= 1.0 - 1e-12) {
    p = 0.0;
  } else {
    const double t = rho * std::sqrt((n - 2.0) / (1.0 - rho * rho));
    p = 2.0 * (1.0 - student_t_cdf(std::fabs(t), n - 2.0));
  }
  return TestResult{.statistic = rho, .p_value = std::clamp(p, 0.0, 1.0)};
}

TestResult kruskal_wallis(std::span<const std::vector<double>> groups) {
  if (groups.size() < 2) {
    throw std::invalid_argument{"kruskal_wallis: need at least 2 groups"};
  }
  std::vector<double> combined;
  std::vector<std::size_t> group_of;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (groups[g].empty()) throw std::invalid_argument{"kruskal_wallis: empty group"};
    for (const double x : groups[g]) {
      combined.push_back(x);
      group_of.push_back(g);
    }
  }
  const auto n = static_cast<double>(combined.size());
  const auto ranks = mid_ranks(combined);

  std::vector<double> rank_sum(groups.size(), 0.0);
  for (std::size_t i = 0; i < combined.size(); ++i) {
    rank_sum[group_of[i]] += ranks[i];
  }
  double h = 0.0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const auto ng = static_cast<double>(groups[g].size());
    h += rank_sum[g] * rank_sum[g] / ng;
  }
  h = 12.0 / (n * (n + 1.0)) * h - 3.0 * (n + 1.0);

  // Tie correction.
  auto sorted_all = combined;
  std::sort(sorted_all.begin(), sorted_all.end());
  double tie_term = 0.0;
  std::size_t i = 0;
  while (i < sorted_all.size()) {
    std::size_t j = i;
    while (j + 1 < sorted_all.size() && sorted_all[j + 1] == sorted_all[i]) ++j;
    const double t = static_cast<double>(j - i + 1);
    tie_term += t * t * t - t;
    i = j + 1;
  }
  const double correction = 1.0 - tie_term / (n * n * n - n);
  if (correction > 0.0) h /= correction;

  const double df = static_cast<double>(groups.size()) - 1.0;
  const double p = 1.0 - chi_squared_cdf(h, df);
  return TestResult{.statistic = h, .p_value = std::clamp(p, 0.0, 1.0)};
}

double autocorrelation(std::span<const double> xs, std::size_t lag) {
  if (xs.size() < 2 || lag >= xs.size()) return 0.0;
  const double m = mean(xs);
  double denom = 0.0;
  for (const double x : xs) denom += (x - m) * (x - m);
  if (denom == 0.0) return 0.0;
  double num = 0.0;
  for (std::size_t t = lag; t < xs.size(); ++t) num += (xs[t] - m) * (xs[t - lag] - m);
  return num / denom;
}

TestResult ljung_box(std::span<const double> xs, std::size_t max_lag) {
  if (max_lag == 0 || max_lag >= xs.size()) {
    throw std::invalid_argument{"ljung_box: max_lag must be in [1, n)"};
  }
  const auto n = static_cast<double>(xs.size());
  double q = 0.0;
  for (std::size_t k = 1; k <= max_lag; ++k) {
    const double rho = autocorrelation(xs, k);
    q += rho * rho / (n - static_cast<double>(k));
  }
  q *= n * (n + 2.0);
  const double p = 1.0 - chi_squared_cdf(q, static_cast<double>(max_lag));
  return TestResult{.statistic = q, .p_value = std::clamp(p, 0.0, 1.0)};
}

}  // namespace cloudrepro::stats
