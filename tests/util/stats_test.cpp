#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.h"

namespace wtp::util {
namespace {

TEST(RunningStats, EmptyIsAllZero) {
  const RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.min(), 0.0);
  EXPECT_EQ(stats.max(), 0.0);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats stats;
  for (const double x : xs) stats.add(x);
  EXPECT_EQ(stats.count(), 5u);
  EXPECT_DOUBLE_EQ(stats.mean(), 6.2);
  // Population variance: mean of squares minus square of mean.
  double sq = 0.0;
  for (const double x : xs) sq += x * x;
  const double expected_var = sq / 5.0 - 6.2 * 6.2;
  EXPECT_NEAR(stats.variance(), expected_var, 1e-12);
  EXPECT_EQ(stats.min(), 1.0);
  EXPECT_EQ(stats.max(), 16.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng{5};
  RunningStats all;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(Quantile, Median) {
  const std::vector<double> xs{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
}

TEST(Quantile, Interpolates) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 10.0);
}

TEST(Quantile, RejectsBadInput) {
  EXPECT_THROW((void)quantile(std::vector<double>{}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)quantile(std::vector<double>{1.0}, 1.5), std::invalid_argument);
}

TEST(BoxPlotStats, QuartilesAndWhiskers) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  xs.push_back(1000.0);  // one outlier
  const BoxPlot box = box_plot(xs);
  EXPECT_NEAR(box.median, 51.0, 1.0);
  EXPECT_GT(box.q3, box.q1);
  EXPECT_EQ(box.outliers, 1u);
  EXPECT_LE(box.whisker_high, 100.0);
  EXPECT_GE(box.whisker_low, 1.0);
}

TEST(LinearFitStats, RecoversExactLine) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(static_cast<double>(i));
    ys.push_back(3.0 * i + 7.0);
  }
  const LinearFit fit = linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 7.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(LinearFitStats, NoisyLineHasHighRSquared) {
  Rng rng{9};
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 500; ++i) {
    xs.push_back(static_cast<double>(i));
    ys.push_back(2.0 * i + rng.normal(0.0, 5.0));
  }
  const LinearFit fit = linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 0.05);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(LinearFitStats, RejectsMismatchedSizes) {
  EXPECT_THROW((void)linear_fit(std::vector<double>{1.0, 2.0},
                                std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)linear_fit(std::vector<double>{1.0}, std::vector<double>{1.0}),
      std::invalid_argument);
}

}  // namespace
}  // namespace wtp::util
