#include "svm/svdd.h"

#include <gtest/gtest.h>

#include <cmath>

#include "svm/one_class_svm.h"
#include "util/rng.h"

namespace wtp::svm {
namespace {

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
  SvddConfig config;
  config.c = 0.1;
  config.kernel = {KernelType::kRbf, 0.5, 0.0, 3};
  const auto model = SvddModel::train(
      util::FeatureMatrix::from_rows(data), config, 4);
  const util::SparseVector center{{0, 1.0}, {1, 1.0}, {2, 1.0}, {3, 1.0}};
  const util::SparseVector far{{0, 6.0}, {1, 6.0}, {2, 6.0}, {3, 6.0}};
  EXPECT_TRUE(model.accepts(center));
  EXPECT_FALSE(model.accepts(far));
}

TEST(Svdd, HardSphereContainsAllTrainingPoints) {
  // C = 1 disables slack: every training point must satisfy
  // ||Phi(x) - a||^2 <= R^2 (up to solver tolerance).
  util::Rng rng{2};
  const auto data = blob(rng, 60, 3, 0.0, 1.0);
  SvddConfig config;
  config.c = 1.0;
  config.kernel = {KernelType::kLinear, 1.0, 0.0, 3};
  config.eps = 1e-6;
  const auto model = SvddModel::train(
      util::FeatureMatrix::from_rows(data), config, 3);
  for (const auto& x : data) {
    ASSERT_GE(model.decision_value(x), -1e-3);
  }
}

TEST(Svdd, RadiusIsPositiveForSpreadData) {
  util::Rng rng{3};
  const auto data = blob(rng, 50, 3, 0.0, 1.0);
  SvddConfig config;
  config.c = 0.5;
  config.kernel = {KernelType::kRbf, 0.5, 0.0, 3};
  const auto model = SvddModel::train(
      util::FeatureMatrix::from_rows(data), config, 3);
  EXPECT_GT(model.r_squared(), 0.0);
}

TEST(Svdd, SmallCAllowsOutliers) {
  util::Rng rng{4};
  auto data = blob(rng, 100, 2, 0.0, 0.5);
  // Inject 5 far outliers the tight sphere should exclude.
  for (int i = 0; i < 5; ++i) {
    data.push_back(util::SparseVector{{0, 20.0 + i}, {1, -20.0}});
  }
  SvddConfig config;
  config.c = 0.02;  // ~1/(0.5 * 105): allows many bounded alphas
  config.kernel = {KernelType::kRbf, 0.1, 0.0, 3};
  const auto model = SvddModel::train(
      util::FeatureMatrix::from_rows(data), config, 2);
  std::size_t rejected_outliers = 0;
  for (std::size_t i = 100; i < 105; ++i) {
    if (!model.accepts(data[i])) ++rejected_outliers;
  }
  EXPECT_EQ(rejected_outliers, 5u);
}

TEST(Svdd, CoefficientsSumToOne) {
  util::Rng rng{5};
  const auto data = blob(rng, 40, 3, 0.0, 1.0);
  SvddConfig config;
  config.c = 0.2;
  config.kernel = {KernelType::kRbf, 0.5, 0.0, 3};
  const auto model = SvddModel::train(
      util::FeatureMatrix::from_rows(data), config, 3);
  double sum = 0.0;
  for (const double a : model.coefficients()) sum += a;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Svdd, InfeasibleCIsClampedUp) {
  util::Rng rng{6};
  const auto data = blob(rng, 10, 2, 0.0, 1.0);
  SvddConfig config;
  config.c = 0.001;  // C*l = 0.01 < 1: clamp to 1/l = 0.1
  config.kernel = {KernelType::kLinear, 1.0, 0.0, 3};
  const auto model = SvddModel::train(
      util::FeatureMatrix::from_rows(data), config, 2);
  EXPECT_DOUBLE_EQ(model.effective_c(), 0.1);
}

TEST(Svdd, SquaredDistanceIsConsistentWithDecision) {
  util::Rng rng{7};
  const auto data = blob(rng, 30, 3, 0.0, 1.0);
  SvddConfig config;
  config.c = 0.3;
  config.kernel = {KernelType::kRbf, 0.5, 0.0, 3};
  const auto model = SvddModel::train(
      util::FeatureMatrix::from_rows(data), config, 3);
  for (const auto& x : blob(rng, 10, 3, 0.0, 2.0)) {
    ASSERT_NEAR(model.decision_value(x),
                model.r_squared() - model.squared_distance_to_center(x), 1e-12);
    ASSERT_GE(model.squared_distance_to_center(x), -1e-9);
  }
}

TEST(Svdd, LinearKernelCenterMatchesMeanForHardSphere) {
  // For symmetric data and C = 1, the linear-kernel SVDD center lies at the
  // centroid region: the decision must be symmetric for mirrored points.
  std::vector<util::SparseVector> data{
      util::SparseVector{{0, 1.0}}, util::SparseVector{{0, -1.0}},
      util::SparseVector{{0, 0.5}}, util::SparseVector{{0, -0.5}}};
  SvddConfig config;
  config.c = 1.0;
  config.kernel = {KernelType::kLinear, 1.0, 0.0, 3};
  config.eps = 1e-8;
  const auto model = SvddModel::train(
      util::FeatureMatrix::from_rows(data), config, 1);
  const double d_pos = model.squared_distance_to_center(util::SparseVector{{0, 0.8}});
  const double d_neg = model.squared_distance_to_center(util::SparseVector{{0, -0.8}});
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

  OneClassSvmConfig oc_config;
  oc_config.nu = nu;
  oc_config.kernel = kernel;
  oc_config.eps = 1e-6;
  const auto oc_model = OneClassSvmModel::train(
      util::FeatureMatrix::from_rows(data), oc_config, 3);

  SvddConfig svdd_config;
  svdd_config.c = 1.0 / (nu * static_cast<double>(data.size()));
  svdd_config.kernel = kernel;
  svdd_config.eps = 1e-8;
  const auto svdd_model = SvddModel::train(
      util::FeatureMatrix::from_rows(data), svdd_config, 3);

  std::size_t agreements = 0;
  std::size_t total = 0;
  for (const auto& x : blob(rng, 200, 3, 0.0, 1.5)) {
    // Skip points very close to either boundary (tolerance-dependent).
    if (std::abs(oc_model.decision_value(x)) < 1e-3) continue;
    if (std::abs(svdd_model.decision_value(x)) < 1e-4) continue;
    ++total;
    if (oc_model.accepts(x) == svdd_model.accepts(x)) ++agreements;
  }
  ASSERT_GT(total, 100u);
  EXPECT_GE(static_cast<double>(agreements) / static_cast<double>(total), 0.97);
}

TEST(Svdd, RejectsInvalidInput) {
  SvddConfig config;
  EXPECT_THROW((void)SvddModel::train(util::FeatureMatrix{}, config, 2),
               std::invalid_argument);
  util::Rng rng{9};
  const auto data = util::FeatureMatrix::from_rows(blob(rng, 10, 2, 0.0, 1.0));
  config.c = 0.0;
  EXPECT_THROW((void)SvddModel::train(data, config, 2), std::invalid_argument);
  config.c = 1.2;
  EXPECT_THROW((void)SvddModel::train(data, config, 2), std::invalid_argument);
}

TEST(Svdd, FromPartsReproducesDecisions) {
  util::Rng rng{10};
  const auto data = blob(rng, 30, 3, 0.0, 1.0);
  SvddConfig config;
  config.c = 0.25;
  config.kernel = {KernelType::kRbf, 0.4, 0.0, 3};
  const auto model = SvddModel::train(
      util::FeatureMatrix::from_rows(data), config, 3);
  const auto rebuilt =
      SvddModel::from_parts(model.kernel(), model.support_vectors(),
                            model.coefficients(), model.r_squared(),
                            model.alpha_k_alpha());
  for (const auto& x : blob(rng, 20, 3, 0.0, 2.0)) {
    ASSERT_DOUBLE_EQ(model.decision_value(x), rebuilt.decision_value(x));
  }
}

}  // namespace
}  // namespace wtp::svm
