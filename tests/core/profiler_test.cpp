#include "core/profiler.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/profile_test_util.h"
#include "core/test_trace.h"

namespace wtp::core {
namespace {

const features::WindowConfig kWindow{60, 30};

ProfileParams ocsvm_params() {
  ProfileParams params;
  params.type = ClassifierType::kOcSvm;
  params.kernel = {svm::KernelType::kRbf, 0.0, 0.0, 3};
  params.regularizer = 0.1;
  return params;
}

ProfileParams svdd_params() {
  ProfileParams params;
  params.type = ClassifierType::kSvdd;
  params.kernel = {svm::KernelType::kLinear, 0.0, 0.0, 3};
  params.regularizer = 0.5;
  return params;
}

TEST(UserProfile, TrainsAndAcceptsOwnTrainingWindows) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const std::string user = dataset.user_ids().front();
  const auto windows = dataset.train_matrix(user, kWindow);
  for (const auto& params : {ocsvm_params(), svdd_params()}) {
    const UserProfile profile =
        UserProfile::train(user, *windows, dataset.schema().dimension(), params);
    EXPECT_EQ(profile.user_id(), user);
    EXPECT_EQ(profile.params(), params);
    EXPECT_GT(profile.support_vector_count(), 0u);
    EXPECT_GT(profile.acceptance_ratio(*windows), 0.7)
        << std::string{to_string(params.type)};
  }
}

TEST(UserProfile, SelfAcceptanceExceedsOtherAcceptance) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const std::string self = dataset.user_ids()[0];
  const std::string other = dataset.user_ids()[1];
  const auto self_windows = dataset.train_matrix(self, kWindow);
  const auto other_windows = dataset.train_matrix(other, kWindow);
  const UserProfile profile = UserProfile::train(
      self, *self_windows, dataset.schema().dimension(), svdd_params());
  EXPECT_GT(profile.acceptance_ratio(*self_windows),
            profile.acceptance_ratio(*other_windows));
}

TEST(UserProfile, AcceptanceRatioOfEmptySetIsZero) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const std::string user = dataset.user_ids().front();
  const UserProfile profile =
      UserProfile::train(user, *dataset.train_matrix(user, kWindow),
                         dataset.schema().dimension(), svdd_params());
  EXPECT_DOUBLE_EQ(profile.acceptance_ratio(util::FeatureMatrix{}), 0.0);
}

// acceptance_ratio's one decision_values sweep counts exactly the rows whose
// per-window decision is >= 0: for both classifiers on every kernel, over
// CSR rows and over a matrix stored as a bitset block only, and 0 for an
// empty matrix.
TEST(UserProfile, AcceptanceRatioMatchesPerWindowDecisions) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const std::size_t dim = dataset.schema().dimension();
  const std::string user = dataset.user_ids().front();
  std::vector<util::SparseVector> windows;
  for (const auto& other : dataset.user_ids()) {
    for (auto& x : testing::rows_of(*dataset.test_matrix(other, kWindow))) {
      windows.push_back(std::move(x));
    }
  }
  ASSERT_FALSE(windows.empty());
  const util::FeatureMatrix csr_rows = util::FeatureMatrix::from_rows(windows, dim);
  const auto bitset_source = std::make_shared<const util::FeatureMatrix>(
      util::FeatureMatrix::from_rows(windows, dim));
  const auto bits = bitset_source->bitset();
  ASSERT_TRUE(bits.has_value());
  const util::FeatureMatrix bitset_rows = util::FeatureMatrix::borrow(
      *bits, bitset_source->sq_norms(), bitset_source);
  ASSERT_TRUE(bitset_rows.bitset_stored());
  const util::FeatureMatrix empty = util::FeatureMatrix::from_rows({}, dim);

  for (const auto type : {ClassifierType::kOcSvm, ClassifierType::kSvdd}) {
    for (const auto kernel :
         {svm::KernelType::kLinear, svm::KernelType::kPolynomial,
          svm::KernelType::kRbf, svm::KernelType::kSigmoid}) {
      ProfileParams params = type == ClassifierType::kOcSvm ? ocsvm_params()
                                                            : svdd_params();
      params.kernel = {kernel, 0.0, 0.0, 3};
      const UserProfile profile = UserProfile::train(
          user, *dataset.train_matrix(user, kWindow), dim, params);
      std::size_t accepted = 0;
      for (const auto& x : windows) {
        if (testing::decide(profile, x) >= 0.0) ++accepted;
      }
      const double expected = static_cast<double>(accepted) /
                              static_cast<double>(windows.size());
      SCOPED_TRACE(std::string{to_string(type)} + " " +
                   std::string{svm::to_string(kernel)});
      EXPECT_EQ(profile.acceptance_ratio(csr_rows), expected);
      EXPECT_EQ(profile.acceptance_ratio(bitset_rows), expected);
      EXPECT_EQ(profile.acceptance_ratio(empty), 0.0);
    }
  }
}

TEST(UserProfile, TrainRejectsEmptyWindows) {
  EXPECT_THROW(
      (void)UserProfile::train("u", util::FeatureMatrix{}, 10, ocsvm_params()),
      std::invalid_argument);
}

TEST(ClassifierTypeNames, Stable) {
  EXPECT_EQ(to_string(ClassifierType::kOcSvm), "oc-svm");
  EXPECT_EQ(to_string(ClassifierType::kSvdd), "svdd");
}

// The exhaustive scorer against the independent per-row oracle: every cell
// bit-identical to UserProfile::decision_value(x, sqnorm, tier), for both
// classifiers and both tiers, serial and pooled, on both sides of
// ModelView::decision_values' 64-query tile.
TEST(ScoreWindows, BitIdenticalToPerRowDecisionValue) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const std::size_t dim = dataset.schema().dimension();
  std::vector<util::SparseVector> queries;
  for (const auto& user : dataset.user_ids()) {
    for (auto& x : testing::rows_of(*dataset.test_matrix(user, kWindow))) {
      queries.push_back(std::move(x));
    }
  }
  ASSERT_FALSE(queries.empty());
  for (std::size_t k = 0; queries.size() < 130; ++k) {
    util::SparseVector copy = queries[k];
    queries.push_back(std::move(copy));
  }

  ProfileParams rbf_svdd = svdd_params();
  rbf_svdd.kernel = ocsvm_params().kernel;
  util::ThreadPool pool{4};
  util::ThreadPool* const pools[] = {nullptr, &pool};
  for (const ProfileParams& params : {ocsvm_params(), rbf_svdd}) {
    std::vector<UserProfile> profiles;
    for (const auto& user : dataset.user_ids()) {
      profiles.push_back(UserProfile::train(
          user, *dataset.train_matrix(user, kWindow), dim, params));
    }
    for (const auto tier :
         {svm::TransformMode::kExact, svm::TransformMode::kRelaxed}) {
      for (const std::size_t w : {1, 63, 64, 65, 130}) {
        const auto rows = std::span{queries}.first(w);
        util::FeatureMatrix windows = util::FeatureMatrix::from_rows(rows, dim);
        windows.ensure_bitset(dataset.schema().numeric_columns());
        for (util::ThreadPool* scorer_pool : pools) {
          SCOPED_TRACE(::testing::Message()
                       << to_string(params.type)
                       << (tier == svm::TransformMode::kRelaxed ? " relaxed"
                                                                : " exact")
                       << " windows " << w
                       << (scorer_pool != nullptr ? " pooled" : " serial"));
          std::vector<double> out(profiles.size() * w);
          score_windows(profiles, windows, out, tier, scorer_pool);
          std::size_t differing = 0;
          for (std::size_t i = 0; i < profiles.size(); ++i) {
            for (std::size_t t = 0; t < w; ++t) {
              const double oracle = profiles[i].decision_value(
                  rows[t], rows[t].squared_norm(), tier);
              if (std::bit_cast<std::uint64_t>(out[i * w + t]) !=
                  std::bit_cast<std::uint64_t>(oracle)) {
                ++differing;
              }
            }
          }
          EXPECT_EQ(differing, 0u);
        }
      }
    }
  }
}

TEST(ScoreWindows, RejectsMisSizedOutput) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const std::string user = dataset.user_ids().front();
  const std::vector<UserProfile> profiles{UserProfile::train(
      user, *dataset.train_matrix(user, kWindow), dataset.schema().dimension(),
      svdd_params())};
  const auto windows = dataset.test_matrix(user, kWindow);
  std::vector<double> out(windows->rows() + 1);
  EXPECT_THROW(score_windows(profiles, *windows, out), std::invalid_argument);
}

}  // namespace
}  // namespace wtp::core
