#include "stats/timeseries.h"

#include <gtest/gtest.h>

#include <vector>

#include "stats/rng.h"

namespace cloudrepro::stats {
namespace {

TEST(TimeseriesTest, SampleToSampleVariability) {
  const std::vector<double> xs{10.0, 11.0, 5.5, 5.5};
  const auto changes = sample_to_sample_variability(xs);
  ASSERT_EQ(changes.size(), 3u);
  EXPECT_NEAR(changes[0], 0.1, 1e-12);
  EXPECT_NEAR(changes[1], 0.5, 1e-12);
  EXPECT_NEAR(changes[2], 0.0, 1e-12);
}

TEST(TimeseriesTest, MaxSampleToSampleVariability) {
  const std::vector<double> xs{10.0, 11.0, 5.5};
  EXPECT_NEAR(max_sample_to_sample_variability(xs), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(max_sample_to_sample_variability(std::vector<double>{1.0}), 0.0);
}

TEST(TimeseriesTest, VariabilityHandlesZeroPredecessor) {
  const std::vector<double> xs{0.0, 5.0};
  const auto changes = sample_to_sample_variability(xs);
  EXPECT_DOUBLE_EQ(changes[0], 0.0);  // Defined as 0 rather than infinity.
}

TEST(TimeseriesTest, WindowedMediansDropPartialWindow) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
  const auto medians = windowed_medians(xs, 3);
  ASSERT_EQ(medians.size(), 2u);
  EXPECT_DOUBLE_EQ(medians[0], 2.0);
  EXPECT_DOUBLE_EQ(medians[1], 5.0);
}

TEST(TimeseriesTest, WindowedMediansEdgeCases) {
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_TRUE(windowed_medians(xs, 0).empty());
  EXPECT_TRUE(windowed_medians(xs, 3).empty());
  EXPECT_EQ(windowed_medians(xs, 2).size(), 1u);
}

TEST(TimeseriesTest, LongestRunDetectsRegimes) {
  // 5 below then 5 above the median -> longest run 5.
  const std::vector<double> xs{1, 1, 1, 1, 1, 9, 9, 9, 9, 9};
  EXPECT_EQ(longest_run_around_median(xs), 5u);
}

TEST(TimeseriesTest, LongestRunOnAlternatingData) {
  const std::vector<double> xs{1, 9, 1, 9, 1, 9};
  EXPECT_EQ(longest_run_around_median(xs), 1u);
}

TEST(TimeseriesTest, LongestRunIidIsShortRelativeToRegimeSwitching) {
  Rng rng{5};
  std::vector<double> iid(200);
  for (auto& x : iid) x = rng.normal(0.0, 1.0);
  std::vector<double> regime;
  for (int i = 0; i < 100; ++i) regime.push_back(1.0 + 0.001 * i);
  for (int i = 0; i < 100; ++i) regime.push_back(10.0 + 0.001 * i);
  EXPECT_LT(longest_run_around_median(iid), longest_run_around_median(regime));
}

}  // namespace
}  // namespace cloudrepro::stats
