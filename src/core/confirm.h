#pragma once

#include <optional>
#include <span>
#include <vector>

#include "stats/ci.h"

namespace cloudrepro::core {

/// CONFIRM analysis (Maricq et al. [46], used by the paper in Figures 13
/// and 19): given a sequence of measurements, track how the non-parametric
/// confidence interval of a quantile evolves as repetitions accumulate, and
/// predict how many repetitions are needed before the CI falls within a
/// desired error bound around the estimate.
///
/// Under i.i.d. sampling the CI tightens monotonically (Figure 13; Q82 in
/// Figure 19). When hidden state couples the runs — a draining token
/// bucket — the CI can instead *widen* with more repetitions (Q65 in
/// Figure 19), the tell-tale the paper uses to detect broken independence.
struct ConfirmPoint {
  std::size_t repetitions = 0;
  double estimate = 0.0;      ///< Quantile estimate over the first n runs.
  double ci_lower = 0.0;
  double ci_upper = 0.0;
  bool ci_valid = false;
  bool within_bound = false;  ///< CI half-width within the error bound.
};

struct ConfirmOptions {
  double quantile = 0.5;       ///< Median by default; 0.9 for tail analyses.
  double confidence = 0.95;
  double error_bound = 0.01;   ///< 1% in Figure 13, 10% in Figure 19.
};

struct ConfirmAnalysis {
  std::vector<ConfirmPoint> points;  ///< One per prefix length n = 1..N.

  /// Smallest n from which the CI half-width stays within the bound for
  /// every longer prefix in the data; nullopt if never achieved.
  std::optional<std::size_t> repetitions_needed;

  /// True when the CI width grew from one prefix to a longer one by more
  /// than numerical noise — the broken-independence signature.
  bool ci_widened = false;

  /// Final-prefix point (full data).
  const ConfirmPoint& final_point() const { return points.back(); }
};

/// Runs the analysis over the measurement sequence in collection order
/// (order matters: the whole point is detecting sequence effects). One
/// sorted prefix grows by an insert per repetition and each point's CI is
/// one O(n) pass (`stats::quantile_ci_sorted`), so the sweep is O(N^2) and
/// every point equals `stats::quantile_ci` of its prefix.
ConfirmAnalysis confirm_analysis(std::span<const double> measurements,
                                 const ConfirmOptions& options = {});

/// Convenience: repetitions needed for a median CI within `error_bound`,
/// or nullopt if the data never converges.
std::optional<std::size_t> repetitions_for_bound(std::span<const double> measurements,
                                                 double error_bound,
                                                 double confidence = 0.95);

/// CONFIRM's forward *prediction*: how many repetitions will be required
/// for the CI to reach the bound, extrapolating beyond the data in hand.
///
/// Under i.i.d. sampling the non-parametric CI half-width shrinks like
/// c / sqrt(n); the predictor fits c on the observed prefix widths and
/// solves for the n that meets the bound. This is what lets an
/// experimenter budget a campaign after a pilot of 15-20 runs instead of
/// discovering at run 100 that the bound is still out of reach.
struct ConfirmPrediction {
  /// Predicted repetitions to reach the bound (>= the pilot size).
  std::size_t predicted_repetitions = 0;
  /// The fitted c in half_width(n) ~= c / sqrt(n), relative to the median.
  double fitted_coefficient = 0.0;
  /// False when the pilot is unusable (too small, zero median, or the
  /// sequence is visibly non-i.i.d. so the sqrt-law does not apply).
  bool reliable = false;
};

ConfirmPrediction predict_repetitions(std::span<const double> pilot,
                                      const ConfirmOptions& options = {});

/// Adaptive CONFIRM stopping: run a campaign cell *until* its quantile-CI
/// relative half-width meets the error bound (the paper's actual protocol)
/// instead of a fixed repetition count. Disabled by default; the campaign
/// engine treats `repetitions_per_cell` as a hard cap when enabled.
struct AdaptiveConfirmOptions {
  bool enabled = false;
  double quantile = 0.5;
  double confidence = 0.95;
  double error_bound = 0.01;
  /// Never stop before this many repetitions even if the bound is already
  /// met (0 = stop as soon as the CI allows).
  std::size_t min_repetitions = 0;
};

/// Streaming evaluator of the adaptive stopping rule for one campaign cell.
///
/// Inserts each measurement into its sorted sample and reports convergence
/// at the first repetition past `min_repetitions` whose CI passes the test
/// `ConfirmPoint::within_bound` records: valid, non-degenerate (estimate !=
/// 0 — a zero quantile can never satisfy a relative bound) and within the
/// bound. Convergence is sticky: the decision is made once, at the first
/// qualifying repetition, so replaying the same value sequence always stops
/// at the same repetition — which is what makes the journaled stop record
/// reproducible.
class ConfirmMonitor {
 public:
  explicit ConfirmMonitor(const AdaptiveConfirmOptions& options);

  /// Feeds one measurement; returns true once the stopping rule is met.
  bool add(double value);

  bool converged() const noexcept { return converged_; }
  /// Repetition count at which the rule was first met (0 if not yet).
  std::size_t stop_repetitions() const noexcept { return stop_repetitions_; }
  std::size_t count() const noexcept { return sorted_.size(); }
  /// CI over the measurements seen so far (invalid until the sample is
  /// large enough for the order-statistic interval to exist).
  stats::ConfidenceInterval ci() const;

 private:
  AdaptiveConfirmOptions options_;
  std::vector<double> sorted_;  ///< Every measurement so far, ascending.
  bool converged_ = false;
  std::size_t stop_repetitions_ = 0;
};

}  // namespace cloudrepro::core
