#include "stats/ecdf.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "stats/rng.h"

namespace cloudrepro::stats {
namespace {

TEST(EcdfTest, StepFunctionValues) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const Ecdf f{xs};
  EXPECT_DOUBLE_EQ(f(0.5), 0.0);
  EXPECT_DOUBLE_EQ(f(1.0), 0.25);
  EXPECT_DOUBLE_EQ(f(2.5), 0.5);
  EXPECT_DOUBLE_EQ(f(4.0), 1.0);
  EXPECT_DOUBLE_EQ(f(100.0), 1.0);
}

TEST(EcdfTest, InverseRoundTrips) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0, 50.0};
  const Ecdf f{xs};
  EXPECT_DOUBLE_EQ(f.inverse(0.0), 10.0);
  EXPECT_DOUBLE_EQ(f.inverse(0.2), 10.0);
  EXPECT_DOUBLE_EQ(f.inverse(0.5), 30.0);
  EXPECT_DOUBLE_EQ(f.inverse(1.0), 50.0);
  EXPECT_THROW(f.inverse(1.5), std::invalid_argument);
  // Regression: NaN used to slip past the old `p < 0 || p > 1` range check
  // (every comparison with NaN is false) and reach the float→int cast,
  // which is UB for NaN.
  EXPECT_THROW(f.inverse(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(EcdfTest, ThrowsOnEmpty) {
  EXPECT_THROW(Ecdf({}), std::invalid_argument);
}

TEST(EcdfTest, CurveIsMonotone) {
  Rng rng{4};
  std::vector<double> xs(500);
  for (auto& x : xs) x = rng.normal(0.0, 1.0);
  const Ecdf f{xs};
  const auto curve = f.curve(50);
  ASSERT_EQ(curve.size(), 50u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].second, curve[i - 1].second);
    EXPECT_GT(curve[i].first, curve[i - 1].first);
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

}  // namespace
}  // namespace cloudrepro::stats
