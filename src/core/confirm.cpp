#include "core/confirm.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace cloudrepro::core {
namespace {

// The stopping rule, shared by ConfirmPoint::within_bound and
// ConfirmMonitor: a valid CI whose relative half-width meets the bound. The
// estimate != 0 guard mirrors relative_half_width's degenerate case: a
// zero-quantile CI can never satisfy a *relative* bound.
bool within_bound(const stats::ConfidenceInterval& ci, double error_bound) {
  return ci.valid && ci.estimate != 0.0 &&
         ci.relative_half_width() <= error_bound;
}

void insert_sorted(std::vector<double>& sorted, double x) {
  sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), x), x);
}

}  // namespace

ConfirmAnalysis confirm_analysis(std::span<const double> measurements,
                                 const ConfirmOptions& options) {
  if (measurements.empty()) {
    throw std::invalid_argument{"confirm_analysis: no measurements"};
  }
  if (options.error_bound <= 0.0) {
    throw std::invalid_argument{"confirm_analysis: error bound must be positive"};
  }

  ConfirmAnalysis analysis;
  analysis.points.reserve(measurements.size());
  std::vector<double> prefix;  // The first n measurements, ascending.
  prefix.reserve(measurements.size());
  for (const double x : measurements) {
    insert_sorted(prefix, x);
    const auto ci =
        stats::quantile_ci_sorted(prefix, options.quantile, options.confidence);
    ConfirmPoint p;
    p.repetitions = prefix.size();
    p.estimate = ci.estimate;
    p.ci_lower = ci.lower;
    p.ci_upper = ci.upper;
    p.ci_valid = ci.valid;
    p.within_bound = within_bound(ci, options.error_bound);
    analysis.points.push_back(p);
  }

  // Widening detection (the Figure 19 Q65 signature). Small-n CIs
  // legitimately fluctuate as new order statistics arrive, so we compare the
  // *final* width against the tightest width the analysis had already
  // settled to: under i.i.d. sampling the final CI is near its minimum;
  // under budget depletion it blows past it.
  {
    constexpr std::size_t kSettleAfter = 15;
    double min_settled_width = -1.0;
    double final_width = -1.0;
    for (const auto& p : analysis.points) {
      if (!p.ci_valid) continue;
      const double width = p.ci_upper - p.ci_lower;
      if (p.repetitions >= kSettleAfter &&
          (min_settled_width < 0.0 || width < min_settled_width)) {
        min_settled_width = width;
      }
      final_width = width;
    }
    analysis.ci_widened = min_settled_width >= 0.0 && final_width >= 0.0 &&
                          final_width > 1.3 * min_settled_width + 1e-12;
  }

  // repetitions_needed: first n such that every m >= n is within the bound.
  std::optional<std::size_t> needed;
  for (std::size_t i = analysis.points.size(); i-- > 0;) {
    if (analysis.points[i].within_bound) {
      needed = analysis.points[i].repetitions;
    } else {
      break;
    }
  }
  analysis.repetitions_needed = needed;
  return analysis;
}

std::optional<std::size_t> repetitions_for_bound(std::span<const double> measurements,
                                                 double error_bound, double confidence) {
  ConfirmOptions options;
  options.error_bound = error_bound;
  options.confidence = confidence;
  return confirm_analysis(measurements, options).repetitions_needed;
}

ConfirmMonitor::ConfirmMonitor(const AdaptiveConfirmOptions& options)
    : options_{options} {
  if (options.error_bound <= 0.0) {
    throw std::invalid_argument{"ConfirmMonitor: error bound must be positive"};
  }
  if (options.quantile <= 0.0 || options.quantile >= 1.0) {
    throw std::invalid_argument{"ConfirmMonitor: quantile must be in (0, 1)"};
  }
  if (options.confidence <= 0.0 || options.confidence >= 1.0) {
    throw std::invalid_argument{"ConfirmMonitor: confidence must be in (0, 1)"};
  }
}

bool ConfirmMonitor::add(double value) {
  insert_sorted(sorted_, value);
  if (converged_) return true;
  if (sorted_.size() < options_.min_repetitions) return false;
  if (within_bound(ci(), options_.error_bound)) {
    converged_ = true;
    stop_repetitions_ = sorted_.size();
  }
  return converged_;
}

stats::ConfidenceInterval ConfirmMonitor::ci() const {
  if (sorted_.empty()) return {};
  return stats::quantile_ci_sorted(sorted_, options_.quantile, options_.confidence);
}

ConfirmPrediction predict_repetitions(std::span<const double> pilot,
                                      const ConfirmOptions& options) {
  ConfirmPrediction prediction;
  const auto analysis = confirm_analysis(pilot, options);

  // Fit c in half_width(n) = c / sqrt(n) by least squares over the valid
  // prefix points: c = sum(w_n / sqrt(n)) / sum(1/n).
  double numerator = 0.0;
  double denominator = 0.0;
  std::size_t usable = 0;
  for (const auto& p : analysis.points) {
    if (!p.ci_valid) continue;
    const double n = static_cast<double>(p.repetitions);
    const double half_width = 0.5 * (p.ci_upper - p.ci_lower);
    numerator += half_width / std::sqrt(n);
    denominator += 1.0 / n;
    ++usable;
  }
  if (usable < 5) return prediction;  // Pilot too small to fit.

  const double final_estimate = analysis.final_point().estimate;
  if (final_estimate == 0.0) return prediction;

  const double c = numerator / denominator;
  prediction.fitted_coefficient = c / std::fabs(final_estimate);

  const double target_half_width = options.error_bound * std::fabs(final_estimate);
  if (target_half_width <= 0.0) return prediction;
  const double n_required = (c / target_half_width) * (c / target_half_width);
  prediction.predicted_repetitions =
      std::max(pilot.size(), static_cast<std::size_t>(std::ceil(n_required)));

  // The sqrt-law only holds for i.i.d. sequences; a widening CI voids it.
  prediction.reliable = !analysis.ci_widened;
  return prediction;
}

}  // namespace cloudrepro::core
