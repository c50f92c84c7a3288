#include "svm/svm_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "svm/svm_test_util.h"
#include "util/rng.h"

namespace wtp::svm {
namespace {

using testing::accepts;
using testing::decide;

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

TEST(Svdd, AcceptsBlobCenterRejectsFarPoint) {
  util::Rng rng{1};
  const auto data = blob(rng, 100, 4, 1.0, 0.1);
  SvmConfig config;
  config.regularizer = 0.1;
  config.kernel = {KernelType::kRbf, 0.5, 0.0, 3};
  const auto model = SvmModel::train(
      SvmKind::kSvdd, util::FeatureMatrix::from_rows(data), config, 4);
  const util::SparseVector center{{0, 1.0}, {1, 1.0}, {2, 1.0}, {3, 1.0}};
  const util::SparseVector far{{0, 6.0}, {1, 6.0}, {2, 6.0}, {3, 6.0}};
  EXPECT_TRUE(accepts(model, center));
  EXPECT_FALSE(accepts(model, far));
}

TEST(Svdd, HardSphereContainsAllTrainingPoints) {
  // C = 1 disables slack: every training point must satisfy
  // ||Phi(x) - a||^2 <= R^2 (up to solver tolerance).
  util::Rng rng{2};
  const auto data = blob(rng, 60, 3, 0.0, 1.0);
  SvmConfig config;
  config.regularizer = 1.0;
  config.kernel = {KernelType::kLinear, 1.0, 0.0, 3};
  config.eps = 1e-6;
  const auto model = SvmModel::train(
      SvmKind::kSvdd, util::FeatureMatrix::from_rows(data), config, 3);
  for (const auto& x : data) {
    ASSERT_GE(decide(model, x), -1e-3);
  }
}

TEST(Svdd, RadiusIsPositiveForSpreadData) {
  util::Rng rng{3};
  const auto data = blob(rng, 50, 3, 0.0, 1.0);
  SvmConfig config;
  config.regularizer = 0.5;
  config.kernel = {KernelType::kRbf, 0.5, 0.0, 3};
  const auto model = SvmModel::train(
      SvmKind::kSvdd, util::FeatureMatrix::from_rows(data), config, 3);
  EXPECT_GT(model.scalar0(), 0.0);
}

TEST(Svdd, SmallCAllowsOutliers) {
  util::Rng rng{4};
  auto data = blob(rng, 100, 2, 0.0, 0.5);
  // Inject 5 far outliers the tight sphere should exclude.
  for (int i = 0; i < 5; ++i) {
    data.push_back(util::SparseVector{{0, 20.0 + i}, {1, -20.0}});
  }
  SvmConfig config;
  config.regularizer = 0.02;  // ~1/(0.5 * 105): allows many bounded alphas
  config.kernel = {KernelType::kRbf, 0.1, 0.0, 3};
  const auto model = SvmModel::train(
      SvmKind::kSvdd, util::FeatureMatrix::from_rows(data), config, 2);
  std::size_t rejected_outliers = 0;
  for (std::size_t i = 100; i < 105; ++i) {
    if (!accepts(model, data[i])) ++rejected_outliers;
  }
  EXPECT_EQ(rejected_outliers, 5u);
}

TEST(Svdd, CoefficientsSumToOne) {
  util::Rng rng{5};
  const auto data = blob(rng, 40, 3, 0.0, 1.0);
  SvmConfig config;
  config.regularizer = 0.2;
  config.kernel = {KernelType::kRbf, 0.5, 0.0, 3};
  const auto model = SvmModel::train(
      SvmKind::kSvdd, util::FeatureMatrix::from_rows(data), config, 3);
  double sum = 0.0;
  for (const double a : model.coefficients()) sum += a;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Svdd, InfeasibleCIsClampedUp) {
  util::Rng rng{6};
  const auto data = blob(rng, 10, 2, 0.0, 1.0);
  SvmConfig config;
  config.regularizer = 0.001;  // C*l = 0.01 < 1: clamp to 1/l = 0.1
  config.kernel = {KernelType::kLinear, 1.0, 0.0, 3};
  const auto model = SvmModel::train(
      SvmKind::kSvdd, util::FeatureMatrix::from_rows(data), config, 2);
  // At C = 1/l = 0.1, sum(alpha) = 1 leaves every alpha at the bound.
  ASSERT_EQ(model.coefficients().size(), 10u);
  for (const double alpha : model.coefficients()) EXPECT_DOUBLE_EQ(alpha, 0.1);
}

TEST(Svdd, SquaredDistanceIsConsistentWithDecision) {
  util::Rng rng{7};
  const auto data = blob(rng, 30, 3, 0.0, 1.0);
  SvmConfig config;
  config.regularizer = 0.3;
  config.kernel = {KernelType::kRbf, 0.5, 0.0, 3};
  const auto model = SvmModel::train(
      SvmKind::kSvdd, util::FeatureMatrix::from_rows(data), config, 3);
  const auto& svs = model.support_vectors();
  for (const auto& x : blob(rng, 10, 3, 0.0, 2.0)) {
    // ||Phi(x) - a||^2 = k(x, x) - 2 sum_i alpha_i k(sv_i, x) + aKa, with the
    // center a = sum_i alpha_i Phi(sv_i).
    const double x_sqnorm = x.squared_norm();
    double cross = 0.0;
    for (std::size_t i = 0; i < svs.rows(); ++i) {
      cross += model.coefficients()[i] *
               kernel_eval(model.kernel(), x, svs.row_vector(i), x_sqnorm,
                           svs.sq_norm(i));
    }
    const double squared_distance =
        kernel_self(model.kernel(), x_sqnorm) - 2.0 * cross + model.scalar1();
    ASSERT_NEAR(decide(model, x), model.scalar0() - squared_distance, 1e-12);
    ASSERT_GE(squared_distance, -1e-9);
  }
}

TEST(Svdd, LinearKernelCenterMatchesMeanForHardSphere) {
  // For symmetric data and C = 1, the linear-kernel SVDD center lies at the
  // centroid region: the decision must be symmetric for mirrored points.
  std::vector<util::SparseVector> data{
      util::SparseVector{{0, 1.0}}, util::SparseVector{{0, -1.0}},
      util::SparseVector{{0, 0.5}}, util::SparseVector{{0, -0.5}}};
  SvmConfig config;
  config.regularizer = 1.0;
  config.kernel = {KernelType::kLinear, 1.0, 0.0, 3};
  config.eps = 1e-8;
  const auto model = SvmModel::train(
      SvmKind::kSvdd, util::FeatureMatrix::from_rows(data), config, 1);
  // Squared distances to the center: R^2 - f(x).
  const double d_pos =
      model.scalar0() - decide(model, util::SparseVector{{0, 0.8}});
  const double d_neg =
      model.scalar0() - decide(model, util::SparseVector{{0, -0.8}});
  EXPECT_NEAR(d_pos, d_neg, 1e-4);
}

TEST(Svdd, EquivalentToOneClassSvmForRbfKernel) {
  // With k(x,x) = 1 (RBF), SVDD with C = 1/(nu*l) and nu-OC-SVM induce the
  // same decision boundary (Tax & Duin 2004; the paper relies on this
  // relation in §II-B).  Verify the accept/reject decisions agree.
  util::Rng rng{8};
  const auto data = blob(rng, 80, 3, 0.0, 1.0);
  const double nu = 0.2;
  const KernelParams kernel{KernelType::kRbf, 0.5, 0.0, 3};

  SvmConfig oc_config;
  oc_config.regularizer = nu;
  oc_config.kernel = kernel;
  oc_config.eps = 1e-6;
  const auto oc_model = SvmModel::train(
      SvmKind::kOcSvm, util::FeatureMatrix::from_rows(data), oc_config, 3);

  SvmConfig svdd_config;
  svdd_config.regularizer = 1.0 / (nu * static_cast<double>(data.size()));
  svdd_config.kernel = kernel;
  svdd_config.eps = 1e-8;
  const auto svdd_model = SvmModel::train(
      SvmKind::kSvdd, util::FeatureMatrix::from_rows(data), svdd_config, 3);

  std::size_t agreements = 0;
  std::size_t total = 0;
  for (const auto& x : blob(rng, 200, 3, 0.0, 1.5)) {
    // Skip points very close to either boundary (tolerance-dependent).
    if (std::abs(decide(oc_model, x)) < 1e-3) continue;
    if (std::abs(decide(svdd_model, x)) < 1e-4) continue;
    ++total;
    if (accepts(oc_model, x) == accepts(svdd_model, x)) ++agreements;
  }
  ASSERT_GT(total, 100u);
  EXPECT_GE(static_cast<double>(agreements) / static_cast<double>(total), 0.97);
}

TEST(Svdd, RejectsInvalidInput) {
  SvmConfig config;
  EXPECT_THROW(
      (void)SvmModel::train(SvmKind::kSvdd, util::FeatureMatrix{}, config, 2),
      std::invalid_argument);
  util::Rng rng{9};
  const auto data = util::FeatureMatrix::from_rows(blob(rng, 10, 2, 0.0, 1.0));
  config.regularizer = 0.0;
  EXPECT_THROW((void)SvmModel::train(SvmKind::kSvdd, data, config, 2),
               std::invalid_argument);
  config.regularizer = 1.2;
  EXPECT_THROW((void)SvmModel::train(SvmKind::kSvdd, data, config, 2),
               std::invalid_argument);
}

TEST(Svdd, FromPartsReproducesDecisions) {
  util::Rng rng{10};
  const auto data = blob(rng, 30, 3, 0.0, 1.0);
  SvmConfig config;
  config.regularizer = 0.25;
  config.kernel = {KernelType::kRbf, 0.4, 0.0, 3};
  const auto model = SvmModel::train(
      SvmKind::kSvdd, util::FeatureMatrix::from_rows(data), config, 3);
  const auto rebuilt =
      SvmModel::from_parts(SvmKind::kSvdd, model.kernel(), model.support_vectors(),
                           model.coefficients(), model.scalar0(),
                           model.scalar1());
  for (const auto& x : blob(rng, 20, 3, 0.0, 2.0)) {
    ASSERT_DOUBLE_EQ(decide(model, x), decide(rebuilt, x));
  }
}

}  // namespace
}  // namespace wtp::svm
