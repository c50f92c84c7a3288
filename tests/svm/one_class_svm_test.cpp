#include "svm/svm_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "svm/svm_test_util.h"
#include "util/rng.h"

namespace wtp::svm {
namespace {

using testing::accepts;
using testing::decide;

/// Gaussian blob around a sparse center in a `dim`-dimensional space.
std::vector<util::SparseVector> blob(util::Rng& rng, std::size_t count,
                                     std::size_t dim, double center,
                                     double spread) {
  std::vector<util::SparseVector> points;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<double> dense(dim, 0.0);
    for (std::size_t d = 0; d < dim; ++d) {
      dense[d] = center + rng.normal(0.0, spread);
    }
    points.push_back(util::SparseVector::from_dense(dense));
  }
  return points;
}

TEST(OneClassSvm, AcceptsBlobCenterRejectsFarPoint) {
  util::Rng rng{1};
  const auto data = blob(rng, 100, 4, 1.0, 0.1);
  SvmConfig config;
  config.regularizer = 0.1;
  config.kernel = {KernelType::kRbf, 0.5, 0.0, 3};
  const auto model = SvmModel::train(
      SvmKind::kOcSvm, util::FeatureMatrix::from_rows(data), config, 4);

  const util::SparseVector center{{0, 1.0}, {1, 1.0}, {2, 1.0}, {3, 1.0}};
  const util::SparseVector far{{0, 5.0}, {1, -5.0}, {2, 5.0}, {3, -5.0}};
  EXPECT_TRUE(accepts(model, center));
  EXPECT_FALSE(accepts(model, far));
  EXPECT_GT(decide(model, center), decide(model, far));
}

TEST(OneClassSvm, NuBoundsOutlierAndSupportVectorFractions) {
  // Schölkopf's nu-property: the fraction of bounded SVs (training
  // outliers) is at most nu, and the fraction of SVs is at least nu.
  util::Rng rng{2};
  const auto data = blob(rng, 200, 3, 0.0, 1.0);
  for (const double nu : {0.1, 0.3, 0.5}) {
    SvmConfig config;
    config.regularizer = nu;
    config.kernel = {KernelType::kRbf, 0.5, 0.0, 3};
    const auto model = SvmModel::train(
        SvmKind::kOcSvm, util::FeatureMatrix::from_rows(data), config, 3);
    // Bounded SVs sit at the box's upper bound, 1.
    std::size_t bounded = 0;
    for (const double alpha : model.coefficients()) {
      if (alpha >= 1.0 - 1e-12) ++bounded;
    }
    EXPECT_LE(static_cast<double>(bounded) / 200.0, nu + 0.02) << "nu=" << nu;
    const double sv_fraction =
        static_cast<double>(model.support_vectors().rows()) / 200.0;
    EXPECT_GE(sv_fraction, nu - 0.02) << "nu=" << nu;
  }
}

TEST(OneClassSvm, TrainingAcceptanceTracksNu) {
  util::Rng rng{3};
  const auto data = blob(rng, 150, 3, 0.0, 1.0);
  SvmConfig config;
  config.regularizer = 0.2;
  config.kernel = {KernelType::kRbf, 0.3, 0.0, 3};
  const auto model = SvmModel::train(
      SvmKind::kOcSvm, util::FeatureMatrix::from_rows(data), config, 3);
  std::size_t accepted = 0;
  for (const auto& x : data) {
    if (accepts(model, x)) ++accepted;
  }
  const double ratio = static_cast<double>(accepted) / 150.0;
  // Roughly 1 - nu of the training data is accepted (free SVs sit on the
  // boundary, so allow slack).
  EXPECT_GT(ratio, 0.7);
  EXPECT_LE(ratio, 1.0);
}

TEST(OneClassSvm, FreeSupportVectorsLieNearBoundary) {
  util::Rng rng{4};
  const auto data = blob(rng, 80, 3, 0.0, 1.0);
  SvmConfig config;
  config.regularizer = 0.3;
  config.kernel = {KernelType::kRbf, 0.5, 0.0, 3};
  config.eps = 1e-5;
  const auto model = SvmModel::train(
      SvmKind::kOcSvm, util::FeatureMatrix::from_rows(data), config, 3);
  ASSERT_FALSE(model.support_vectors().empty());
  for (std::size_t i = 0; i < model.support_vectors().rows(); ++i) {
    const double alpha = model.coefficients()[i];
    if (alpha > 1e-6 && alpha < 1.0 - 1e-6) {  // free SV
      EXPECT_NEAR(decide(model, model.support_vectors().row_vector(i)), 0.0,
                  1e-3);
    }
  }
}

TEST(OneClassSvm, CoefficientsSumToNuTimesL) {
  util::Rng rng{5};
  const auto data = blob(rng, 60, 2, 0.0, 1.0);
  SvmConfig config;
  config.regularizer = 0.25;
  config.kernel = {KernelType::kRbf, 1.0, 0.0, 3};
  const auto model = SvmModel::train(
      SvmKind::kOcSvm, util::FeatureMatrix::from_rows(data), config, 2);
  double sum = 0.0;
  for (const double a : model.coefficients()) sum += a;
  EXPECT_NEAR(sum, 0.25 * 60.0, 1e-6);
}

TEST(OneClassSvm, AutoGammaUsesDimension) {
  util::Rng rng{6};
  const auto data = blob(rng, 30, 8, 0.0, 1.0);
  SvmConfig config;
  config.regularizer = 0.5;
  config.kernel = {KernelType::kRbf, 0.0, 0.0, 3};  // gamma auto
  const auto model = SvmModel::train(
      SvmKind::kOcSvm, util::FeatureMatrix::from_rows(data), config, 8);
  EXPECT_DOUBLE_EQ(model.kernel().gamma, 1.0 / 8.0);
}

TEST(OneClassSvm, RejectsInvalidInput) {
  SvmConfig config;
  EXPECT_THROW(
      (void)SvmModel::train(SvmKind::kOcSvm, util::FeatureMatrix{}, config, 3),
      std::invalid_argument);
  util::Rng rng{7};
  const auto data = util::FeatureMatrix::from_rows(blob(rng, 10, 2, 0.0, 1.0));
  config.regularizer = 0.0;
  EXPECT_THROW((void)SvmModel::train(SvmKind::kOcSvm, data, config, 2),
               std::invalid_argument);
  config.regularizer = 1.5;
  EXPECT_THROW((void)SvmModel::train(SvmKind::kOcSvm, data, config, 2),
               std::invalid_argument);
}

TEST(OneClassSvm, SinglePointTrainsAndAcceptsItself) {
  const std::vector<util::SparseVector> data{util::SparseVector{{0, 1.0}}};
  SvmConfig config;
  config.regularizer = 0.5;
  config.kernel = {KernelType::kRbf, 1.0, 0.0, 3};
  const auto model = SvmModel::train(
      SvmKind::kOcSvm, util::FeatureMatrix::from_rows(data), config, 1);
  EXPECT_TRUE(accepts(model, data[0]));
}

TEST(OneClassSvm, LinearKernelSeparatesScaledClusters) {
  // Training data along direction (1,1); a point in the opposite direction
  // projects negatively and must be rejected.
  util::Rng rng{8};
  std::vector<util::SparseVector> data;
  for (int i = 0; i < 50; ++i) {
    const double a = rng.uniform(0.8, 1.2);
    data.push_back(util::SparseVector{{0, a}, {1, a}});
  }
  SvmConfig config;
  config.regularizer = 0.1;
  config.kernel = {KernelType::kLinear, 1.0, 0.0, 3};
  const auto model = SvmModel::train(
      SvmKind::kOcSvm, util::FeatureMatrix::from_rows(data), config, 2);
  EXPECT_TRUE(accepts(model, util::SparseVector{{0, 1.0}, {1, 1.0}}));
  EXPECT_FALSE(accepts(model, util::SparseVector{{0, -1.0}, {1, -1.0}}));
}

TEST(OneClassSvm, FromPartsReproducesDecisions) {
  util::Rng rng{9};
  const auto data = blob(rng, 40, 3, 0.5, 0.5);
  SvmConfig config;
  config.regularizer = 0.2;
  config.kernel = {KernelType::kRbf, 0.7, 0.0, 3};
  const auto model = SvmModel::train(
      SvmKind::kOcSvm, util::FeatureMatrix::from_rows(data), config, 3);
  const auto rebuilt =
      SvmModel::from_parts(SvmKind::kOcSvm, model.kernel(), model.support_vectors(),
                           model.coefficients(), model.scalar0());
  for (const auto& x : blob(rng, 20, 3, 0.5, 2.0)) {
    ASSERT_DOUBLE_EQ(decide(model, x), decide(rebuilt, x));
  }
}

TEST(OneClassSvm, FromPartsValidatesSizes) {
  const std::vector<util::SparseVector> one_row{util::SparseVector{{0, 1.0}}};
  EXPECT_THROW((void)SvmModel::from_parts(
                   SvmKind::kOcSvm, {KernelType::kLinear, 1.0, 0.0, 3},
                   util::FeatureMatrix::from_rows(one_row), {0.5, 0.5}, 0.0),
               std::invalid_argument);
}

TEST(SvmKindNames, ParseInvertsToString) {
  for (const SvmKind kind : {SvmKind::kOcSvm, SvmKind::kSvdd}) {
    EXPECT_EQ(parse_svm_kind(to_string(kind)), kind);
  }
  EXPECT_EQ(to_string(SvmKind::kOcSvm), "oc-svm");
  EXPECT_EQ(to_string(SvmKind::kSvdd), "svdd");
  EXPECT_THROW((void)parse_svm_kind("ocsvm"), std::runtime_error);
  EXPECT_THROW((void)parse_svm_kind(""), std::runtime_error);
}

TEST(ComputeRho, FreeVectorAverageWins) {
  // alpha = (0, 0.5, 1) with U = 1: index 1 is free -> rho = G_1.
  const std::vector<double> alpha{0.0, 0.5, 1.0};
  const std::vector<double> gradient{5.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(compute_rho(alpha, gradient, 1.0), 2.0);
}

TEST(ComputeRho, MidpointWhenNoFreeVectors) {
  // alpha = (0, 1): rho in [G_1, G_0] -> midpoint.
  const std::vector<double> alpha{0.0, 1.0};
  const std::vector<double> gradient{4.0, 2.0};
  EXPECT_DOUBLE_EQ(compute_rho(alpha, gradient, 1.0), 3.0);
}

}  // namespace
}  // namespace wtp::svm
