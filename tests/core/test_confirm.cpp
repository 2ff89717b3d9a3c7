#include "core/confirm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "stats/ci.h"
#include "stats/rng.h"

namespace cloudrepro::core {
namespace {

std::vector<double> iid_sample(std::size_t n, double mean, double sd,
                               std::uint64_t seed) {
  stats::Rng rng{seed};
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.normal(mean, sd);
  return xs;
}

TEST(ConfirmTest, PointsCoverEveryPrefix) {
  const auto xs = iid_sample(40, 100.0, 5.0, 1);
  const auto a = confirm_analysis(xs);
  ASSERT_EQ(a.points.size(), 40u);
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].repetitions, i + 1);
  }
}

TEST(ConfirmTest, EveryPointIsTheQuantileCiOfItsPrefix) {
  // The sweep keeps one incrementally sorted prefix; each point must equal
  // an independent quantile_ci of the unsorted prefix, field for field.
  // The rounded sample has many ties, so insertion order among equal
  // values is exercised too.
  auto raw = iid_sample(200, 250.0, 12.0, 41);
  auto rounded = raw;
  for (auto& x : rounded) x = std::round(x);
  for (const auto& xs : {raw, rounded}) {
    for (const double q : {0.5, 0.9}) {
      ConfirmOptions opt;
      opt.quantile = q;
      opt.error_bound = 0.02;
      const auto analysis = confirm_analysis(xs, opt);
      ASSERT_EQ(analysis.points.size(), xs.size());
      std::size_t within = 0;
      for (std::size_t n = 1; n <= xs.size(); ++n) {
        const auto ci = stats::quantile_ci(std::span{xs}.first(n), q, opt.confidence);
        const auto& p = analysis.points[n - 1];
        EXPECT_EQ(p.repetitions, n);
        EXPECT_EQ(p.estimate, ci.estimate) << "q=" << q << " n=" << n;
        EXPECT_EQ(p.ci_lower, ci.lower) << "q=" << q << " n=" << n;
        EXPECT_EQ(p.ci_upper, ci.upper) << "q=" << q << " n=" << n;
        EXPECT_EQ(p.ci_valid, ci.valid) << "q=" << q << " n=" << n;
        EXPECT_EQ(p.within_bound, ci.valid && ci.estimate != 0.0 &&
                                      ci.relative_half_width() <= opt.error_bound)
            << "q=" << q << " n=" << n;
        within += p.within_bound ? 1 : 0;
      }
      // The bound is met part of the way, so both outcomes are compared.
      EXPECT_GT(within, 0u) << "q=" << q;
      EXPECT_LT(within, xs.size()) << "q=" << q;
    }
  }
}

TEST(ConfirmTest, IidDataConverges) {
  // Figure 13's normal regime: CIs tighten as repetitions accumulate.
  const auto xs = iid_sample(200, 100.0, 1.0, 2);
  ConfirmOptions opt;
  opt.error_bound = 0.01;
  const auto a = confirm_analysis(xs, opt);
  ASSERT_TRUE(a.repetitions_needed.has_value());
  EXPECT_LE(*a.repetitions_needed, 200u);
  EXPECT_TRUE(a.final_point().within_bound);
}

TEST(ConfirmTest, TightBoundsNeedManyRepetitions) {
  // Figure 13's message: 1% error bounds can require ~70+ repetitions.
  const auto xs = iid_sample(200, 100.0, 8.0, 3);
  ConfirmOptions tight;
  tight.error_bound = 0.01;
  ConfirmOptions loose;
  loose.error_bound = 0.10;
  const auto a_tight = confirm_analysis(xs, tight);
  const auto a_loose = confirm_analysis(xs, loose);
  ASSERT_TRUE(a_loose.repetitions_needed.has_value());
  if (a_tight.repetitions_needed.has_value()) {
    EXPECT_GT(*a_tight.repetitions_needed, *a_loose.repetitions_needed);
  }
}

TEST(ConfirmTest, HighVarianceNeverConvergesInFewRuns) {
  const auto xs = iid_sample(10, 100.0, 40.0, 4);
  ConfirmOptions opt;
  opt.error_bound = 0.01;
  const auto a = confirm_analysis(xs, opt);
  EXPECT_FALSE(a.repetitions_needed.has_value());
}

TEST(ConfirmTest, BudgetDepletionWidensCi) {
  // The Figure 19 Q65 signature: a drifting (non-i.i.d.) sequence makes the
  // CI *widen* with more repetitions.
  std::vector<double> xs;
  stats::Rng rng{5};
  for (int i = 0; i < 20; ++i) xs.push_back(rng.normal(40.0, 0.5));
  for (int i = 0; i < 20; ++i) {
    xs.push_back(rng.normal(40.0 + 4.0 * i, 0.5));  // Budget running out.
  }
  const auto a = confirm_analysis(xs);
  EXPECT_TRUE(a.ci_widened);
}

TEST(ConfirmTest, StationaryDataDoesNotFlagWidening) {
  const auto xs = iid_sample(100, 50.0, 2.0, 6);
  const auto a = confirm_analysis(xs);
  // Small fluctuations are tolerated; sustained widening is not expected.
  EXPECT_FALSE(a.ci_widened && !a.repetitions_needed.has_value());
}

TEST(ConfirmTest, TailQuantileAnalysis) {
  // Figure 3b companion: the 90th percentile needs far more data.
  const auto xs = iid_sample(300, 100.0, 5.0, 7);
  ConfirmOptions opt;
  opt.quantile = 0.9;
  opt.error_bound = 0.05;
  const auto a = confirm_analysis(xs, opt);
  ASSERT_EQ(a.points.size(), 300u);
  // Early prefixes cannot even form a valid 90th-percentile CI.
  EXPECT_FALSE(a.points[10].ci_valid);
  EXPECT_TRUE(a.points.back().ci_valid);
}

TEST(ConfirmTest, RepetitionsNeededIsSuffixStable) {
  // repetitions_needed marks the start of an all-within-bound suffix.
  const auto xs = iid_sample(120, 100.0, 3.0, 8);
  ConfirmOptions opt;
  opt.error_bound = 0.03;
  const auto a = confirm_analysis(xs, opt);
  if (a.repetitions_needed.has_value()) {
    for (std::size_t i = *a.repetitions_needed - 1; i < a.points.size(); ++i) {
      EXPECT_TRUE(a.points[i].within_bound) << "prefix " << i + 1;
    }
  }
}

TEST(ConfirmTest, ConvenienceWrapperMatches) {
  const auto xs = iid_sample(100, 100.0, 2.0, 9);
  ConfirmOptions opt;
  opt.error_bound = 0.05;
  EXPECT_EQ(repetitions_for_bound(xs, 0.05), confirm_analysis(xs, opt).repetitions_needed);
}

TEST(ConfirmTest, Validation) {
  EXPECT_THROW(confirm_analysis({}), std::invalid_argument);
  const std::vector<double> xs{1.0, 2.0};
  ConfirmOptions opt;
  opt.error_bound = 0.0;
  EXPECT_THROW(confirm_analysis(xs, opt), std::invalid_argument);
}


TEST(ConfirmPredictionTest, PredictsWithinFactorOfTruth) {
  // Pilot of 20 runs; the prediction should land within ~2x of the
  // empirically-determined requirement from a long run.
  const auto xs = iid_sample(400, 100.0, 6.0, 21);
  ConfirmOptions opt;
  opt.error_bound = 0.01;

  const auto truth = confirm_analysis(xs, opt).repetitions_needed;
  ASSERT_TRUE(truth.has_value());

  const auto prediction =
      predict_repetitions(std::span<const double>{xs}.subspan(0, 20), opt);
  ASSERT_TRUE(prediction.reliable);
  EXPECT_GT(prediction.predicted_repetitions, *truth / 4);
  EXPECT_LT(prediction.predicted_repetitions, *truth * 4);
}

TEST(ConfirmPredictionTest, TighterBoundsNeedMorePredictedReps) {
  const auto xs = iid_sample(25, 100.0, 5.0, 22);
  ConfirmOptions tight;
  tight.error_bound = 0.005;
  ConfirmOptions loose;
  loose.error_bound = 0.05;
  const auto p_tight = predict_repetitions(xs, tight);
  const auto p_loose = predict_repetitions(xs, loose);
  ASSERT_TRUE(p_tight.reliable);
  ASSERT_TRUE(p_loose.reliable);
  EXPECT_GT(p_tight.predicted_repetitions, 4 * p_loose.predicted_repetitions);
}

TEST(ConfirmPredictionTest, UnreliableOnNonIidPilot) {
  // A drifting pilot (depleting budget) voids the sqrt-law.
  stats::Rng rng{23};
  std::vector<double> xs;
  for (int i = 0; i < 20; ++i) xs.push_back(rng.normal(40.0, 0.5));
  for (int i = 0; i < 20; ++i) xs.push_back(rng.normal(40.0 + 5.0 * i, 0.5));
  const auto p = predict_repetitions(xs);
  EXPECT_FALSE(p.reliable);
}

TEST(ConfirmPredictionTest, TinyPilotIsUnreliable) {
  const auto xs = iid_sample(6, 100.0, 5.0, 24);
  const auto p = predict_repetitions(xs);
  EXPECT_FALSE(p.reliable);
  EXPECT_EQ(p.predicted_repetitions, 0u);
}

TEST(ConfirmPredictionTest, PredictionNeverBelowPilotSizeWhenBoundMet) {
  const auto xs = iid_sample(60, 100.0, 0.5, 25);
  ConfirmOptions opt;
  opt.error_bound = 0.10;  // Trivially met.
  const auto p = predict_repetitions(xs, opt);
  ASSERT_TRUE(p.reliable);
  EXPECT_GE(p.predicted_repetitions, 60u);
}

TEST(ConfirmMonitorTest, ConvergesOnIidDataAndIsSticky) {
  const auto xs = iid_sample(200, 100.0, 2.0, 31);
  AdaptiveConfirmOptions opt;
  opt.enabled = true;
  opt.error_bound = 0.05;
  ConfirmMonitor monitor{opt};
  std::size_t stop = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (monitor.add(xs[i])) {
      stop = i + 1;
      break;
    }
  }
  ASSERT_TRUE(monitor.converged());
  ASSERT_GT(stop, 0u);
  EXPECT_EQ(monitor.stop_repetitions(), stop);
  // Sticky: feeding more data after convergence keeps reporting true and
  // never moves the recorded stopping point.
  EXPECT_TRUE(monitor.add(1e9));
  EXPECT_EQ(monitor.stop_repetitions(), stop);
}

TEST(ConfirmMonitorTest, StopMatchesPostHocWithinBoundPrefix) {
  // The monitor's decision and the post-hoc confirm_analysis must agree:
  // the stopping repetition is the first prefix whose point is within
  // bound (past min_repetitions). This is what keeps the journaled stop
  // record and the summary's confirm block mutually consistent.
  const auto xs = iid_sample(120, 50.0, 1.5, 32);
  AdaptiveConfirmOptions opt;
  opt.enabled = true;
  opt.error_bound = 0.05;
  ConfirmMonitor monitor{opt};
  std::size_t stop = 0;
  for (std::size_t i = 0; i < xs.size() && stop == 0; ++i) {
    if (monitor.add(xs[i])) stop = i + 1;
  }
  ASSERT_GT(stop, 0u);

  ConfirmOptions post;
  post.error_bound = opt.error_bound;
  const auto analysis =
      confirm_analysis(std::span{xs}.first(stop), post);
  EXPECT_TRUE(analysis.points.back().within_bound);
  for (std::size_t n = 1; n < stop; ++n) {
    EXPECT_FALSE(analysis.points[n - 1].within_bound) << "prefix " << n;
  }
}

TEST(ConfirmMonitorTest, CiAfterEachAddEqualsQuantileCiOfThePrefix) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto xs = iid_sample(40, 100.0, 8.0, seed);
    for (const double q : {0.5, 0.9}) {
      AdaptiveConfirmOptions opt;
      opt.enabled = true;
      opt.quantile = q;
      ConfirmMonitor monitor{opt};
      for (std::size_t n = 1; n <= xs.size(); ++n) {
        monitor.add(xs[n - 1]);
        const auto a = monitor.ci();
        const auto b = stats::quantile_ci(std::span{xs}.first(n), q, opt.confidence);
        EXPECT_EQ(a.valid, b.valid) << "seed " << seed << " q=" << q << " n=" << n;
        EXPECT_EQ(a.lower, b.lower) << "seed " << seed << " q=" << q << " n=" << n;
        EXPECT_EQ(a.estimate, b.estimate) << "seed " << seed << " q=" << q << " n=" << n;
        EXPECT_EQ(a.upper, b.upper) << "seed " << seed << " q=" << q << " n=" << n;
        EXPECT_EQ(a.confidence, b.confidence) << "seed " << seed << " q=" << q << " n=" << n;
      }
    }
  }
}

TEST(ConfirmMonitorTest, MinRepetitionsDefersTheStop) {
  const auto xs = iid_sample(100, 100.0, 0.1, 33);  // Converges immediately.
  AdaptiveConfirmOptions base;
  base.enabled = true;
  base.error_bound = 0.10;
  ConfirmMonitor eager{base};
  AdaptiveConfirmOptions floored = base;
  floored.min_repetitions = 25;
  ConfirmMonitor deferred{floored};
  std::size_t eager_stop = 0, deferred_stop = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (eager_stop == 0 && eager.add(xs[i])) eager_stop = i + 1;
    if (deferred_stop == 0 && deferred.add(xs[i])) deferred_stop = i + 1;
  }
  ASSERT_GT(eager_stop, 0u);
  ASSERT_GE(deferred_stop, 25u);
  EXPECT_LT(eager_stop, deferred_stop);
}

TEST(ConfirmMonitorTest, AllZeroStreamNeverConverges) {
  // Regression companion to the relative_half_width fix: a metric that is
  // identically zero has no meaningful relative bound, so the monitor must
  // run to the cap instead of declaring instant convergence.
  AdaptiveConfirmOptions opt;
  opt.enabled = true;
  opt.error_bound = 0.10;
  ConfirmMonitor monitor{opt};
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(monitor.add(0.0)) << "rep " << i + 1;
  }
  EXPECT_FALSE(monitor.converged());
  EXPECT_EQ(monitor.stop_repetitions(), 0u);
}

TEST(ConfirmMonitorTest, WithinBoundGuardsZeroEstimate) {
  // Mirror guard in the post-hoc path: an all-zero sequence must never
  // report within_bound even though its CI has zero width.
  const std::vector<double> zeros(40, 0.0);
  ConfirmOptions opt;
  opt.error_bound = 0.10;
  const auto analysis = confirm_analysis(zeros, opt);
  for (const auto& point : analysis.points) {
    EXPECT_FALSE(point.within_bound);
  }
  EXPECT_FALSE(analysis.repetitions_needed.has_value());
}

TEST(ConfirmMonitorTest, RejectsInvalidOptions) {
  AdaptiveConfirmOptions opt;
  opt.enabled = true;
  opt.error_bound = 0.0;
  EXPECT_THROW(ConfirmMonitor{opt}, std::invalid_argument);
  opt.error_bound = 0.05;
  opt.quantile = 1.0;
  EXPECT_THROW(ConfirmMonitor{opt}, std::invalid_argument);
  opt.quantile = 0.5;
  opt.confidence = 0.0;
  EXPECT_THROW(ConfirmMonitor{opt}, std::invalid_argument);
}

}  // namespace
}  // namespace cloudrepro::core
