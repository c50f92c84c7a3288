#include "core/metrics.h"

#include <gtest/gtest.h>

#include "core/test_trace.h"

namespace wtp::core {
namespace {

const features::WindowConfig kWindow{60, 30};

ProfileParams default_params() {
  ProfileParams params;
  params.type = ClassifierType::kSvdd;
  params.kernel = {svm::KernelType::kLinear, 0.0, 0.0, 3};
  params.regularizer = 0.5;
  return params;
}

MatrixByUser train_matrices_by_user(const ProfilingDataset& dataset) {
  MatrixByUser windows;
  for (const auto& user : dataset.user_ids()) {
    windows.emplace(user, dataset.train_matrix(user, kWindow));
  }
  return windows;
}

std::vector<UserProfile> train_all(const ProfilingDataset& dataset,
                                   const MatrixByUser& windows) {
  std::vector<UserProfile> profiles;
  for (const auto& user : dataset.user_ids()) {
    profiles.push_back(UserProfile::train(
        user, *windows.at(user), dataset.schema().dimension(), default_params()));
  }
  return profiles;
}

TEST(ProfileAcceptance, SelfIsHighOtherIsLower) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const auto windows = train_matrices_by_user(dataset);
  const auto profiles = train_all(dataset, windows);
  for (const auto& profile : profiles) {
    const AcceptanceRatios ratios = profile_acceptance(profile, windows);
    EXPECT_GT(ratios.acc_self, 50.0) << profile.user_id();
    EXPECT_LT(ratios.acc_other, ratios.acc_self) << profile.user_id();
    EXPECT_NEAR(ratios.acc(), ratios.acc_self - ratios.acc_other, 1e-12);
  }
}

TEST(ProfileAcceptance, ValuesArePercentages) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const auto windows = train_matrices_by_user(dataset);
  const auto profiles = train_all(dataset, windows);
  const AcceptanceRatios ratios = profile_acceptance(profiles[0], windows);
  EXPECT_GE(ratios.acc_self, 0.0);
  EXPECT_LE(ratios.acc_self, 100.0);
  EXPECT_GE(ratios.acc_other, 0.0);
  EXPECT_LE(ratios.acc_other, 100.0);
}

TEST(MeanAcceptance, IsAverageOfPerProfileRatios) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const auto windows = train_matrices_by_user(dataset);
  const auto profiles = train_all(dataset, windows);
  const AcceptanceRatios mean = mean_acceptance(profiles, windows);
  double self_sum = 0.0;
  double other_sum = 0.0;
  for (const auto& profile : profiles) {
    const auto ratios = profile_acceptance(profile, windows);
    self_sum += ratios.acc_self;
    other_sum += ratios.acc_other;
  }
  EXPECT_NEAR(mean.acc_self, self_sum / static_cast<double>(profiles.size()), 1e-9);
  EXPECT_NEAR(mean.acc_other, other_sum / static_cast<double>(profiles.size()), 1e-9);
}

TEST(MeanAcceptance, RejectsEmptyProfileSet) {
  EXPECT_THROW((void)mean_acceptance({}, MatrixByUser{}), std::invalid_argument);
}

TEST(Confusion, MatrixShapeMatchesUsers) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const auto windows = train_matrices_by_user(dataset);
  const auto profiles = train_all(dataset, windows);
  const ConfusionMatrix matrix = compute_confusion(profiles, windows);
  ASSERT_EQ(matrix.users.size(), dataset.user_count());
  ASSERT_EQ(matrix.cells.size(), profiles.size());
  for (const auto& row : matrix.cells) {
    ASSERT_EQ(row.size(), matrix.users.size());
    for (const double cell : row) {
      ASSERT_GE(cell, 0.0);
      ASSERT_LE(cell, 100.0);
    }
  }
}

TEST(Confusion, DiagonalDominatesOffDiagonal) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const auto windows = train_matrices_by_user(dataset);
  const auto profiles = train_all(dataset, windows);
  const ConfusionMatrix matrix = compute_confusion(profiles, windows);
  EXPECT_GT(matrix.diagonal_mean(), matrix.off_diagonal_mean());
}

// Every cell is the profile's per-window acceptance percentage, bit for bit,
// in either tier (RBF profiles, so the relaxed tier has a transform to
// approximate).
TEST(Confusion, CellsAreProfileAcceptanceRatios) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const auto windows = train_matrices_by_user(dataset);
  ProfileParams params;
  params.type = ClassifierType::kOcSvm;
  params.kernel = {svm::KernelType::kRbf, 0.0, 0.0, 3};
  params.regularizer = 0.2;
  std::vector<UserProfile> profiles;
  for (const auto& user : dataset.user_ids()) {
    profiles.push_back(UserProfile::train(user, *windows.at(user),
                                          dataset.schema().dimension(), params));
  }
  for (const auto tier :
       {svm::TransformMode::kExact, svm::TransformMode::kRelaxed}) {
    const ConfusionMatrix matrix = compute_confusion(profiles, windows, tier);
    ASSERT_EQ(matrix.users.size(), windows.size());
    for (std::size_t j = 0; j < profiles.size(); ++j) {
      for (std::size_t u = 0; u < matrix.users.size(); ++u) {
        const auto& rows = *windows.at(matrix.users[u]);
        std::size_t accepted = 0;
        for (std::size_t r = 0; r < rows.rows(); ++r) {
          const util::SparseVector x = rows.row_vector(r);
          if (profiles[j].decision_value(x, x.squared_norm(), tier) >= 0.0) {
            ++accepted;
          }
        }
        EXPECT_EQ(matrix.cells[j][u],
                  static_cast<double>(accepted) /
                      static_cast<double>(rows.rows()) * 100.0)
            << profiles[j].user_id() << " on " << matrix.users[u];
      }
    }
  }
}

TEST(Confusion, HandBuiltMatrixStatistics) {
  ConfusionMatrix matrix;
  matrix.users = {"a", "b", "c"};
  matrix.cells = {{90.0, 0.0, 10.0}, {0.0, 80.0, 0.0}, {20.0, 0.0, 70.0}};
  EXPECT_DOUBLE_EQ(matrix.diagonal_mean(), 80.0);
  EXPECT_DOUBLE_EQ(matrix.off_diagonal_mean(), 30.0 / 6.0);
  EXPECT_DOUBLE_EQ(matrix.off_diagonal_zero_fraction(), 4.0 / 6.0);
  EXPECT_DOUBLE_EQ(matrix.off_diagonal_below(10.0), 5.0 / 6.0);
  EXPECT_DOUBLE_EQ(matrix.off_diagonal_below(100.0), 1.0);
}

TEST(Confusion, EmptyMatrixStatisticsAreZero) {
  const ConfusionMatrix matrix;
  EXPECT_DOUBLE_EQ(matrix.diagonal_mean(), 0.0);
  EXPECT_DOUBLE_EQ(matrix.off_diagonal_mean(), 0.0);
  EXPECT_DOUBLE_EQ(matrix.off_diagonal_zero_fraction(), 0.0);
}

}  // namespace
}  // namespace wtp::core
