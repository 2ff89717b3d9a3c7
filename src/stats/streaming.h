#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "stats/hypothesis.h"

namespace cloudrepro::stats {

/// Streaming, O(1)-mergeable statistics.
///
/// The span-based functions in descriptive.h are vector-in/scalar-out: every
/// caller had to hold the full sample, which costs O(n) memory per campaign
/// cell and cannot be combined across the thread pool or across shards. The
/// accumulators here hold constant state per statistic, merge in O(1)
/// (Chan's parallel update for the moments), and cache derived values behind
/// a dirty bitmask so repeated reads after a burst of `add` calls pay for
/// each derivation once — the design of the `cached`-bitmask statistics
/// classes this refactor is modeled on. descriptive.h's span functions are
/// now thin adapters over `StreamingMoments`, so existing callers keep their
/// signatures while sharing one implementation.

/// Count / mean / M2 / min / max accumulator (Welford in the Youngs–Cramer
/// sum formulation, merged with Chan's pairwise update).
///
/// Numerical contract: feeding a sample in index order reproduces the naive
/// sum (and therefore the legacy `mean`) bit-exactly, and the M2-based
/// variance tracks the legacy two-pass variance to within 1 ulp on
/// well-conditioned data (enforced by the seed-swept property suite).
/// Merging reassociates the sums, so merged results may differ from the
/// sequential ones by a few ulps — the property suite bounds that drift too.
class StreamingMoments {
 public:
  StreamingMoments() = default;

  void add(double x) noexcept {
    ++n_;
    sum_ += x;
    if (n_ == 1) {
      min_ = max_ = x;
      m2_ = 0.0;
    } else {
      if (x < min_) min_ = x;
      if (x > max_) max_ = x;
      // Youngs–Cramer: with T_n the running sum *including* x,
      // M2 += (n x - T_n)^2 / (n (n-1)).
      const double nd = static_cast<double>(n_);
      const double d = nd * x - sum_;
      m2_ += d * d / (nd * (nd - 1.0));
    }
    cached_ = 0;
  }

  void add_all(std::span<const double> xs) noexcept {
    for (const double x : xs) add(x);
  }

  /// Chan's parallel merge: the result summarizes the union of both
  /// samples. O(1); either side may be empty.
  void merge(const StreamingMoments& other) noexcept;

  std::size_t count() const noexcept { return n_; }
  double sum() const noexcept { return sum_; }
  /// Arithmetic mean; 0 for an empty accumulator (legacy contract).
  double mean() const noexcept {
    return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_);
  }
  double min() const noexcept { return n_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return n_ == 0 ? 0.0 : max_; }
  /// Sum of squared deviations from the mean (Welford's M2).
  double m2() const noexcept { return m2_; }

  // --- Lazily cached derived statistics ---------------------------------
  // Derivations run at most once per add/merge burst; the bitmask tracks
  // which cached slots are current.

  /// Unbiased (n-1) sample variance; 0 for counts < 2 (legacy contract).
  double variance() const noexcept;
  double stddev() const noexcept;
  /// stddev / mean; 0 when the mean is 0 (legacy contract).
  double coefficient_of_variation() const noexcept;
  /// stddev / sqrt(n); 0 for counts < 2.
  double standard_error() const noexcept;

  void reset() noexcept { *this = StreamingMoments{}; }

 private:
  enum CacheBit : std::uint8_t {
    kVariance = 1u << 0,
    kStddev = 1u << 1,
    kCov = 1u << 2,
    kStderr = 1u << 3,
  };
  bool is_cached(std::uint8_t bit) const noexcept { return (cached_ & bit) != 0; }

  std::size_t n_ = 0;
  double sum_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;

  mutable std::uint8_t cached_ = 0;
  mutable double cached_variance_ = 0.0;
  mutable double cached_stddev_ = 0.0;
  mutable double cached_cov_ = 0.0;
  mutable double cached_stderr_ = 0.0;
};

/// Welch's two-sample t test from summary moments alone — "is this the same
/// distribution as the baseline?" without either sample in memory, which is
/// what cross-shard fingerprint comparisons need. Null hypothesis: equal
/// means. Requires both counts >= 2.
TestResult welch_t_test(const StreamingMoments& a, const StreamingMoments& b);

/// Two-sample z test on the means (normal approximation; appropriate once
/// both counts are large). Null hypothesis: equal means.
TestResult z_test(const StreamingMoments& a, const StreamingMoments& b);

}  // namespace cloudrepro::stats
