#pragma once

#include <cstdint>
#include <vector>

namespace cloudrepro::stats {

/// Deterministic, explicitly-seeded random number generator.
///
/// Every stochastic component in this repository draws from an `Rng` that the
/// caller seeds, so that all experiments and benches are reproducible
/// run-to-run — the repository practices what the paper preaches (F5.x).
///
/// The engine is xoshiro256++ seeded through SplitMix64, which has excellent
/// statistical quality for simulation workloads and is trivially portable.
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed via SplitMix64 expansion.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Next raw 64-bit value.
  std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal deviate (Marsaglia polar method).
  double normal() noexcept;

  /// Normal deviate with given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Lognormal deviate: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma) noexcept;

  /// Exponential deviate with given rate (lambda).
  double exponential(double rate) noexcept;

  /// Pareto deviate with scale x_m and shape alpha (heavy-tailed noise).
  double pareto(double scale, double shape) noexcept;

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept;

  /// Fisher-Yates shuffle of indices [0, n) — used for randomized
  /// experiment ordering (guideline F5.4).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Derives an independent child generator (for per-node streams).
  Rng split() noexcept;

 private:
  std::uint64_t state_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace cloudrepro::stats
