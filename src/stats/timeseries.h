#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace cloudrepro::stats {

/// Time-series utilities used to characterize measurement traces
/// (Section 3: "How rapidly does bandwidth vary?") and to implement the
/// paper's F5.4 advice of discretizing performance into time units.

/// Relative changes between consecutive samples: |x[t] - x[t-1]| / x[t-1].
/// The paper reports the maximum of this quantity: up to 33% for HPCCloud
/// full-speed and 114% for Google Cloud 5-30.
std::vector<double> sample_to_sample_variability(std::span<const double> xs);

/// Maximum relative sample-to-sample change (0 for fewer than 2 samples).
double max_sample_to_sample_variability(std::span<const double> xs);

/// Splits a series into contiguous windows of `window` samples (the final
/// partial window is dropped) and returns the median of each — F5.4's
/// "discretize performance evaluation into units of time, e.g. one hour;
/// gather median performance for each interval".
std::vector<double> windowed_medians(std::span<const double> xs, std::size_t window);

/// Longest run of consecutive samples on the same side of the series median;
/// long runs are the signature of regime-switching (token-bucket) behaviour
/// rather than i.i.d. noise.
std::size_t longest_run_around_median(std::span<const double> xs);

}  // namespace cloudrepro::stats
