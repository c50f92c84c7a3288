#include "oneclass/model.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/test_trace.h"
#include "oneclass/centroid.h"
#include "oneclass/gaussian.h"
#include "oneclass/kde.h"
#include "oneclass/oneclass_test_util.h"
#include "oneclass/svm_adapter.h"
#include "util/rng.h"

namespace wtp::oneclass {
namespace {

using testing::accepted;
using testing::decide;

constexpr std::size_t kDim = 6;

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

TEST(QuantileThreshold, PicksOutlierFractionQuantile) {
  const std::vector<double> scores{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile_threshold(scores, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_threshold(scores, 0.5), 3.0);
  EXPECT_THROW((void)quantile_threshold({}, 0.1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Parameterized acceptance behaviour shared by every model family.
// ---------------------------------------------------------------------------

class OneClassModelTest : public ::testing::TestWithParam<ModelKind> {};

TEST_P(OneClassModelTest, AcceptsInliersRejectsFarOutliers) {
  util::Rng rng{17};
  const auto train = blob(rng, 120, 1.0, 0.15);
  auto model = make_model(GetParam(), 0.1);
  model->fit(util::FeatureMatrix::from_rows(train), kDim);

  // Fresh inliers from the same distribution.
  const auto inliers = blob(rng, 60, 1.0, 0.15);
  EXPECT_GE(accepted(*model, inliers), 42u) << to_string(GetParam());

  // Far outliers.
  const auto outliers = blob(rng, 60, 8.0, 0.15);
  EXPECT_GT(60u - accepted(*model, outliers), 55u) << to_string(GetParam());
}

TEST_P(OneClassModelTest, DecisionValueOrdersByTypicality) {
  util::Rng rng{19};
  const auto train = blob(rng, 100, 0.0, 0.3);
  auto model = make_model(GetParam(), 0.1);
  model->fit(util::FeatureMatrix::from_rows(train), kDim);
  const util::SparseVector center;  // all zeros = the blob center
  std::vector<double> far_dense(kDim, 5.0);
  const auto far = util::SparseVector::from_dense(far_dense);
  EXPECT_GT(decide(*model, center), decide(*model, far)) << to_string(GetParam());
}

TEST_P(OneClassModelTest, DecisionValuesCheckFitAndOutputSize) {
  util::Rng rng{43};
  const auto train = blob(rng, 40, 0.0, 0.3);
  const auto data = util::FeatureMatrix::from_rows(train);
  auto model = make_model(GetParam(), 0.1);
  std::vector<double> out(data.rows());
  EXPECT_THROW(model->decision_values(data, out), std::logic_error);
  model->fit(data, kDim);
  EXPECT_THROW(model->decision_values(data, std::span{out}.first(data.rows() - 1)),
               std::invalid_argument);
  model->decision_values(data, out);
  // A window scores the same whichever matrix holds it.
  for (std::size_t r = 0; r < data.rows(); ++r) {
    EXPECT_EQ(out[r], decide(*model, train[r]))
        << to_string(GetParam()) << " row " << r;
  }
}

TEST_P(OneClassModelTest, FitRejectsEmptyData) {
  auto model = make_model(GetParam(), 0.1);
  EXPECT_THROW(model->fit(util::FeatureMatrix{}, kDim),
               std::invalid_argument);
}

TEST_P(OneClassModelTest, NameIsStable) {
  auto model = make_model(GetParam(), 0.1);
  EXPECT_EQ(model->name(), to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, OneClassModelTest,
    ::testing::Values(ModelKind::kOcSvm, ModelKind::kSvdd, ModelKind::kCentroid,
                      ModelKind::kGaussian, ModelKind::kKde,
                      ModelKind::kAutoencoder, ModelKind::kIsolationForest,
                      ModelKind::kKnn),
    [](const ::testing::TestParamInfo<ModelKind>& info) {
      std::string name{to_string(info.param)};
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Family-specific behaviour.
// ---------------------------------------------------------------------------

TEST(CentroidModelTest, RadiusCoversConfiguredFraction) {
  util::Rng rng{23};
  const auto train = blob(rng, 200, 0.0, 1.0);
  CentroidModel model{0.2};
  model.fit(util::FeatureMatrix::from_rows(train), kDim);
  EXPECT_NEAR(static_cast<double>(accepted(model, train)) / 200.0, 0.8, 0.05);
}

TEST(CentroidModelTest, DecisionBeforeFitThrows) {
  const CentroidModel model{0.1};
  EXPECT_THROW((void)decide(model, util::SparseVector{}), std::logic_error);
}

TEST(CentroidModelTest, RejectsBadOutlierFraction) {
  EXPECT_THROW((CentroidModel{-0.1}), std::invalid_argument);
  EXPECT_THROW((CentroidModel{1.0}), std::invalid_argument);
}

TEST(GaussianModelTest, ScalesPerDimensionVariance) {
  // Train on data with tiny variance in dim 0 and large in dim 1: a fixed
  // offset along dim 0 must look far more anomalous than along dim 1.
  util::Rng rng{29};
  std::vector<util::SparseVector> train;
  for (int i = 0; i < 200; ++i) {
    std::vector<double> dense(2, 0.0);
    dense[0] = 1.0 + rng.normal(0.0, 0.05);
    dense[1] = 1.0 + rng.normal(0.0, 1.0);
    train.push_back(util::SparseVector::from_dense(dense));
  }
  GaussianModel model{0.1, 1e-6};
  model.fit(util::FeatureMatrix::from_rows(train), 2);
  const auto off_dim0 = util::SparseVector{{0, 2.0}, {1, 1.0}};
  const auto off_dim1 = util::SparseVector{{0, 1.0}, {1, 2.0}};
  EXPECT_LT(decide(model, off_dim0), decide(model, off_dim1));
}

TEST(GaussianModelTest, RejectsBadParameters) {
  EXPECT_THROW((GaussianModel{1.5}), std::invalid_argument);
  EXPECT_THROW((GaussianModel{0.1, 0.0}), std::invalid_argument);
}

TEST(KdeModelTest, DensityHigherNearTrainingMass) {
  util::Rng rng{31};
  const auto train = blob(rng, 100, 0.0, 0.5);
  KdeModel model{0.1, 0.5};
  model.fit(util::FeatureMatrix::from_rows(train), kDim);
  const util::SparseVector near;
  std::vector<double> far_dense(kDim, 4.0);
  // The density is the decision value plus the threshold.
  EXPECT_GT(decide(model, near),
            decide(model, util::SparseVector::from_dense(far_dense)));
}

TEST(KdeModelTest, AutoBandwidthResolvesFromDimension) {
  util::Rng rng{37};
  const auto train = blob(rng, 30, 0.0, 0.5);
  KdeModel model{0.1, 0.0};
  model.fit(util::FeatureMatrix::from_rows(train), kDim);
  // Density of a training point must be positive and <= 1 (RBF kernel mean).
  const double d = decide(model, train[0]) + model.threshold();
  EXPECT_GT(d, 0.0);
  EXPECT_LE(d, 1.0);
}

TEST(SvmAdapters, ExposeUnderlyingModels) {
  util::Rng rng{41};
  const auto train = blob(rng, 50, 0.0, 0.5);
  const auto data = util::FeatureMatrix::from_rows(train);
  SvmAdapter oc{svm::SvmKind::kOcSvm};
  oc.fit(data, kDim);
  EXPECT_FALSE(oc.model().support_vectors().empty());
  EXPECT_EQ(oc.name(), "oc-svm");

  SvmAdapter svdd = SvmAdapter::with_nu(svm::SvmKind::kSvdd, 0.2);
  svdd.fit(data, kDim);
  EXPECT_FALSE(svdd.model().support_vectors().empty());
  EXPECT_EQ(svdd.name(), "svdd");
  // C = 1/(nu*l) = 1/(0.2*50) = 0.1: the model trained at C = 0.1 directly.
  svm::SvmConfig config;
  config.regularizer = 0.1;
  EXPECT_EQ(svdd.model().coefficients(),
            svm::SvmModel::train(svm::SvmKind::kSvdd, data, config, kDim)
                .coefficients());
}

TEST(SvmAdapters, DecisionBeforeFitThrows) {
  const SvmAdapter oc{svm::SvmKind::kOcSvm};
  EXPECT_THROW((void)decide(oc, util::SparseVector{}), std::logic_error);
  const SvmAdapter svdd{svm::SvmKind::kSvdd};
  EXPECT_THROW((void)decide(svdd, util::SparseVector{}), std::logic_error);
}

TEST(SvmAdapters, WithNuValidatesRange) {
  for (const svm::SvmKind kind : {svm::SvmKind::kOcSvm, svm::SvmKind::kSvdd}) {
    EXPECT_THROW((void)SvmAdapter::with_nu(kind, 0.0), std::invalid_argument);
    EXPECT_THROW((void)SvmAdapter::with_nu(kind, 1.5), std::invalid_argument);
  }
}

TEST(ModelFactory, ToStringCoversAllKinds) {
  EXPECT_EQ(to_string(ModelKind::kOcSvm), "oc-svm");
  EXPECT_EQ(to_string(ModelKind::kSvdd), "svdd");
  EXPECT_EQ(to_string(ModelKind::kCentroid), "centroid");
  EXPECT_EQ(to_string(ModelKind::kGaussian), "gaussian");
  EXPECT_EQ(to_string(ModelKind::kKde), "kde");
  EXPECT_EQ(to_string(ModelKind::kAutoencoder), "autoencoder");
  EXPECT_EQ(to_string(ModelKind::kIsolationForest), "isolation-forest");
  EXPECT_EQ(to_string(ModelKind::kKnn), "knn");
}

// Every model family's decisions, pinned by one FNV-1a digest over their
// bits: each kind is fitted at nu = 0.1 on one tiny-dataset user and scores
// every user's test windows.  A refactor of a scorer or of its threshold
// calibration must reproduce these bits exactly.
TEST(OneClassDigest, DecisionValuesArePinned) {
  const auto& dataset = core::testing::tiny_dataset();
  const features::WindowConfig window{60, 30};
  const std::size_t dimension = dataset.schema().dimension();
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto add = [&hash](double value) {
    const auto bits = std::bit_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i) {
      hash ^= (bits >> (8 * i)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  };
  const std::string& trained = dataset.user_ids().front();
  for (const ModelKind kind :
       {ModelKind::kOcSvm, ModelKind::kSvdd, ModelKind::kCentroid,
        ModelKind::kGaussian, ModelKind::kKde, ModelKind::kAutoencoder,
        ModelKind::kIsolationForest, ModelKind::kKnn}) {
    auto model = make_model(kind, 0.1);
    model->fit(*dataset.train_matrix(trained, window), dimension);
    for (const auto& user : dataset.user_ids()) {
      const auto& windows = *dataset.test_matrix(user, window);
      std::vector<double> decisions(windows.rows());
      model->decision_values(windows, decisions);
      for (const double value : decisions) add(value);
    }
  }
  EXPECT_EQ(hash, 8319458906135094749ULL);
}

}  // namespace
}  // namespace wtp::oneclass
