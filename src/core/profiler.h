// UserProfiler: trains and applies per-user one-class profiles (the paper's
// §III-D usage of feature vectors with OC-SVM / SVDD).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "svm/model_io.h"
#include "svm/svm_model.h"
#include "util/feature_matrix.h"
#include "util/sparse_vector.h"
#include "util/thread_pool.h"

namespace wtp::core {

/// The profile's model kind: OC-SVM or SVDD (svm::to_string and
/// svm::parse_svm_kind name them).
using ClassifierType = svm::SvmKind;

/// The learning parameters of one user profile (the per-user output of the
/// paper's grid search): classifier family, kernel, and nu (OC-SVM) or C
/// (SVDD).
struct ProfileParams {
  ClassifierType type = ClassifierType::kOcSvm;
  svm::KernelParams kernel;
  double regularizer = 0.5;  ///< nu for OC-SVM, C for SVDD

  friend bool operator==(const ProfileParams&, const ProfileParams&) = default;
};

/// A trained user profile: the model plus its provenance.
class UserProfile {
 public:
  /// Trains a profile for `user_id` on its training window matrix (the
  /// canonical CSR data plane).  `dimension` is the schema dimension.
  /// Throws std::invalid_argument on empty training data or out-of-range
  /// parameters.
  [[nodiscard]] static UserProfile train(std::string user_id,
                                         const util::FeatureMatrix& windows,
                                         std::size_t dimension,
                                         const ProfileParams& params);

  /// Wraps an already-trained model (e.g. one cell of a warm-started
  /// fit_path sweep) into a profile.  `params` must describe how the model
  /// was trained; no validation against the model is possible here.
  [[nodiscard]] static UserProfile from_model(std::string user_id,
                                              const ProfileParams& params,
                                              svm::SvmModel model) {
    return UserProfile{std::move(user_id), params, std::move(model)};
  }

  /// Decision value of one window (>= 0 accepts), whose squared norm the
  /// caller computes (serving: one norm per scored window shared across all
  /// profiles), in transform tier `tier` (svm/kernel.h).
  [[nodiscard]] double decision_value(
      const util::SparseVector& window, double window_sqnorm,
      svm::TransformMode tier = svm::TransformMode::kExact) const;

  /// Batched decisions over every row of `windows` (the kernel_block path),
  /// bit-identical to per-row decision_value.  `out` needs windows.rows()
  /// elements.
  void decision_values(
      const util::FeatureMatrix& windows, std::span<double> out,
      svm::TransformMode tier = svm::TransformMode::kExact) const;

  /// Fraction of the rows of `windows` accepted by the profile, in [0, 1]
  /// (0 for an empty matrix), from one decision_values sweep.  `slack`
  /// widens the acceptance test to decision >= -slack; grid scoring uses it
  /// so training windows that are free support vectors (decision exactly 0
  /// at the optimum) count as accepted regardless of which near-optimal
  /// point the solver stopped at.  `tier` as in decision_value.
  [[nodiscard]] double acceptance_ratio(
      const util::FeatureMatrix& windows, double slack = 0.0,
      svm::TransformMode tier = svm::TransformMode::kExact) const;

  [[nodiscard]] const std::string& user_id() const noexcept { return user_id_; }
  [[nodiscard]] const ProfileParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t support_vector_count() const;

  /// Access the underlying model (for timing benchmarks).
  [[nodiscard]] const svm::SvmModel& model() const noexcept { return model_; }

 private:
  UserProfile(std::string user_id, ProfileParams params, svm::SvmModel model)
      : user_id_{std::move(user_id)}, params_{params}, model_{std::move(model)} {}

  std::string user_id_;
  ProfileParams params_;
  svm::SvmModel model_;
};

/// The exhaustive window scorer (paper §V-B: every user model applied to
/// every window): out[i * windows.rows() + t] is profile i's decision on
/// window row t in tier `tier`, each profile scoring the whole block with
/// one decision_values sweep — bit-identical to per-row decision_value.
/// With a pool, profiles fan out in contiguous chunks under a per-call
/// latch, so concurrent callers may share one pool.  Throws
/// std::invalid_argument when `out` does not hold profiles × rows values.
void score_windows(std::span<const UserProfile> profiles,
                   const util::FeatureMatrix& windows, std::span<double> out,
                   svm::TransformMode tier = svm::TransformMode::kExact,
                   util::ThreadPool* pool = nullptr);

}  // namespace wtp::core
