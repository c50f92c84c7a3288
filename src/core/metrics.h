// Evaluation metrics of the paper (§IV-C, §V-A): self-acceptance,
// other-acceptance, global acceptance, and the 25x25 confusion matrix.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/profiler.h"
#include "util/feature_matrix.h"

namespace wtp::core {

/// The paper's model-quality criteria: ACC_self must be maximized, ACC_other
/// minimized; ACC = ACC_self - ACC_other is the grid-search objective.
/// All values are percentages in [0, 100].
struct AcceptanceRatios {
  double acc_self = 0.0;
  double acc_other = 0.0;
  [[nodiscard]] double acc() const noexcept { return acc_self - acc_other; }
};

/// Windows per user, the evaluation corpus a set of profiles is scored on:
/// one shared FeatureMatrix per user (the dataset's matrix cache hands
/// these out).
using MatrixByUser =
    std::map<std::string, std::shared_ptr<const util::FeatureMatrix>>;

/// Acceptance ratios of one profile: self on its own user's windows, other
/// on everyone else's (macro-averaged over the other users, as the paper
/// averages per-user ratios).  Users absent from `windows` are skipped.
/// `slack` widens the acceptance test to decision >= -slack (see
/// UserProfile::acceptance_ratio); grid scoring uses it to decouple ACC
/// from which near-optimal point a solve stopped at.
[[nodiscard]] AcceptanceRatios profile_acceptance(const UserProfile& profile,
                                                  const MatrixByUser& windows,
                                                  double slack = 0.0);

/// Mean ratios over a set of profiles (the paper's "averages of the 25 user
/// results").
[[nodiscard]] AcceptanceRatios mean_acceptance(std::span<const UserProfile> profiles,
                                               const MatrixByUser& windows);

/// Tab. V: cell (j, i) = % of user_i's windows accepted by model m_j.
struct ConfusionMatrix {
  std::vector<std::string> users;        ///< row/column labels, sorted
  std::vector<std::vector<double>> cells;  ///< [model][test set], percent

  [[nodiscard]] double diagonal_mean() const;
  [[nodiscard]] double off_diagonal_mean() const;
  /// Fraction of off-diagonal cells that are exactly 0 (sparsity of Tab. V).
  [[nodiscard]] double off_diagonal_zero_fraction() const;
  /// Fraction of off-diagonal cells at or below `percent`.  The paper's
  /// exact-zero cells come from test sets of only a handful of windows;
  /// with thousands of test windows per user the scale-independent
  /// statement is "at most x% of windows accepted".
  [[nodiscard]] double off_diagonal_below(double percent) const;
};

/// `tier` is the transform precision the profiles score in (svm/kernel.h).
[[nodiscard]] ConfusionMatrix compute_confusion(
    std::span<const UserProfile> profiles, const MatrixByUser& windows,
    svm::TransformMode tier = svm::TransformMode::kExact);

}  // namespace wtp::core
