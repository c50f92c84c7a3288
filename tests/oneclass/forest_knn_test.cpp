#include <gtest/gtest.h>

#include "oneclass/isolation_forest.h"
#include "oneclass/knn.h"
#include "oneclass/oneclass_test_util.h"
#include "util/rng.h"

namespace wtp::oneclass {
namespace {

using testing::accepted;
using testing::decide;

constexpr std::size_t kDim = 8;

std::vector<util::SparseVector> blob(util::Rng& rng, std::size_t count,
                                     double center, double spread) {
  std::vector<util::SparseVector> points;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<double> dense(kDim, 0.0);
    for (std::size_t d = 0; d < kDim; ++d) {
      dense[d] = center + rng.normal(0.0, spread);
    }
    points.push_back(util::SparseVector::from_dense(dense));
  }
  return points;
}

TEST(IsolationForest, AnomalyScoreHigherForOutliers) {
  util::Rng rng{1};
  const auto data = blob(rng, 300, 0.5, 0.1);
  IsolationForestModel model;
  model.fit(util::FeatureMatrix::from_rows(data), kDim);
  std::vector<double> center_dense(kDim, 0.5);
  std::vector<double> far_dense(kDim, 5.0);
  // The anomaly score is the threshold minus the decision value.
  const double inlier =
      model.threshold() - decide(model, util::SparseVector::from_dense(center_dense));
  const double outlier =
      model.threshold() - decide(model, util::SparseVector::from_dense(far_dense));
  EXPECT_LT(inlier, outlier);
  EXPECT_GT(outlier, 0.55);  // clearly anomalous
  EXPECT_GT(inlier, 0.0);
  EXPECT_LT(inlier, 1.0);
}

TEST(IsolationForest, ThresholdCoversConfiguredTrainingFraction) {
  util::Rng rng{2};
  const auto data = blob(rng, 400, 0.0, 1.0);
  IsolationForestConfig config;
  config.outlier_fraction = 0.2;
  IsolationForestModel model{config};
  model.fit(util::FeatureMatrix::from_rows(data), kDim);
  EXPECT_NEAR(static_cast<double>(accepted(model, data)) / 400.0, 0.8, 0.05);
}

TEST(IsolationForest, IsDeterministicGivenSeed) {
  util::Rng rng{3};
  const auto data = blob(rng, 100, 0.0, 1.0);
  IsolationForestModel a;
  IsolationForestModel b;
  a.fit(util::FeatureMatrix::from_rows(data), kDim);
  b.fit(util::FeatureMatrix::from_rows(data), kDim);
  EXPECT_EQ(decide(a, data), decide(b, data));
}

TEST(IsolationForest, HandlesSubsampleLargerThanData) {
  util::Rng rng{4};
  const auto data = blob(rng, 20, 0.0, 1.0);  // < default 256 subsample
  IsolationForestModel model;
  model.fit(util::FeatureMatrix::from_rows(data), kDim);
  EXPECT_NO_THROW((void)decide(model, data[0]));
}

TEST(IsolationForest, RejectsInvalidConfigAndEmptyFit) {
  IsolationForestConfig config;
  config.num_trees = 0;
  EXPECT_THROW((IsolationForestModel{config}), std::invalid_argument);
  config = {};
  config.subsample = 1;
  EXPECT_THROW((IsolationForestModel{config}), std::invalid_argument);
  IsolationForestModel model;
  EXPECT_THROW(model.fit(util::FeatureMatrix{}, kDim),
               std::invalid_argument);
  EXPECT_THROW((void)decide(model, util::SparseVector{}), std::logic_error);
}

TEST(Knn, KthDistanceGrowsWithDistanceFromMass) {
  util::Rng rng{5};
  const auto data = blob(rng, 200, 0.0, 0.5);
  KnnModel model{5, 0.1};
  model.fit(util::FeatureMatrix::from_rows(data), kDim);
  std::vector<double> near_dense(kDim, 0.0);
  std::vector<double> far_dense(kDim, 4.0);
  // The k-th distance is the threshold minus the decision value.
  EXPECT_GT(decide(model, util::SparseVector::from_dense(near_dense)),
            decide(model, util::SparseVector::from_dense(far_dense)));
}

TEST(Knn, LeaveOneOutCalibrationAcceptsTrainingFraction) {
  util::Rng rng{6};
  const auto data = blob(rng, 300, 0.0, 1.0);
  KnnModel model{3, 0.15};
  model.fit(util::FeatureMatrix::from_rows(data), kDim);
  // Training points score slightly better than leave-one-out calibration,
  // so acceptance is at least 1 - outlier_fraction.
  EXPECT_GE(static_cast<double>(accepted(model, data)) / 300.0, 0.85 - 0.03);
}

TEST(Knn, KthDistanceIsExactOnHandBuiltData) {
  // Points on a line at 0, 1, 2, 10.  For x=0 with k=2 the 2nd-nearest
  // training point is at distance 2.
  std::vector<util::SparseVector> data{
      util::SparseVector{}, util::SparseVector{{0, 1.0}},
      util::SparseVector{{0, 2.0}}, util::SparseVector{{0, 10.0}}};
  KnnModel model{2, 0.0};
  model.fit(util::FeatureMatrix::from_rows(data), 1);
  const auto kth_distance = [&model](const util::SparseVector& x) {
    return model.threshold() - decide(model, x);
  };
  EXPECT_NEAR(kth_distance(util::SparseVector{}), 1.0, 1e-12);
  EXPECT_NEAR(kth_distance(util::SparseVector{{0, -3.0}}), 4.0, 1e-12);
}

TEST(Knn, SinglePointTrainingSetWorks) {
  const std::vector<util::SparseVector> data{util::SparseVector{{0, 1.0}}};
  KnnModel model{1, 0.0};
  model.fit(util::FeatureMatrix::from_rows(data), 1);
  EXPECT_GE(decide(model, data[0]), 0.0);
}

TEST(Knn, RejectsInvalidParameters) {
  EXPECT_THROW((KnnModel{0, 0.1}), std::invalid_argument);
  EXPECT_THROW((KnnModel{3, 1.0}), std::invalid_argument);
  KnnModel model{3, 0.1};
  EXPECT_THROW(model.fit(util::FeatureMatrix{}, kDim),
               std::invalid_argument);
  EXPECT_THROW((void)decide(model, util::SparseVector{}), std::logic_error);
}

}  // namespace
}  // namespace wtp::oneclass
