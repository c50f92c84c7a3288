// The paper's two one-class profile models as one type (§II).
//
// Both are one SMO dual (svm/smo_solver.h) with different constants:
//
//   nu-OC-SVM (Schölkopf et al. 2001; §II-A, eqs. 5-6): separates the
//     training data from the origin by a maximum-margin hyperplane in
//     feature space.  Q = K, p = 0, box [0, 1], sum(alpha) = nu*l (alpha
//     rescaled by nu*l; LibSVM scales the same dual to sum(alpha) = 1, which
//     changes the decision function only by that constant factor).  nu
//     upper-bounds the fraction of training outliers and lower-bounds the
//     fraction of support vectors.
//       f(x) = sum_i alpha_i k(sv_i, x) - rho
//   SVDD (Tax & Duin 2004; §II-B, eqs. 10-12): encloses the training data
//     in a minimum-volume hypersphere (center a, radius R) in feature
//     space.  Q = 2K, p_i = -K_ii, box [0, max(C, 1/l)] (sum(alpha) = 1
//     with alpha_i <= C needs C*l >= 1, so smaller C is clamped up),
//     sum(alpha) = 1.  C relates to the OC-SVM nu by C = 1/(nu l).
//       f(x) = R^2 - ||Phi(x) - a||^2
//            = R^2 - (k(x, x) - 2 sum_i alpha_i k(sv_i, x) + alpha^T K alpha)
//
// x is accepted when f(x) >= 0.  The decision arithmetic lives once, in
// ModelView (svm/model_io.h); a model scores by forwarding there.  Training
// consumes a util::FeatureMatrix (the canonical CSR data plane); the
// support vectors are kept as a compact owned FeatureMatrix block that the
// batch kernel path streams contiguously.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "svm/kernel.h"
#include "svm/smo_solver.h"
#include "util/feature_matrix.h"
#include "util/sparse_vector.h"

namespace wtp::svm {

/// Which of the two duals a model solves.  The values are the model blob's
/// model_type codes (svm/model_io.h) and the profile store's classifier
/// codes, so stored bytes follow from the enum alone.
enum class SvmKind : std::uint8_t { kOcSvm = 0, kSvdd = 1 };

/// "oc-svm" | "svdd".
[[nodiscard]] std::string_view to_string(SvmKind kind) noexcept;
/// Inverse of to_string; throws std::runtime_error on any other text.
[[nodiscard]] SvmKind parse_svm_kind(std::string_view text);

struct SvmConfig {
  double regularizer = 0.5;   ///< nu (OC-SVM) or C (SVDD), in (0, 1]
  KernelParams kernel;        ///< gamma <= 0 resolves to 1/dimension
  double eps = 1e-3;          ///< SMO stopping tolerance
  bool shrinking = true;      ///< SolverConfig::shrinking passthrough
  std::size_t shrink_interval = 0;  ///< SolverConfig::shrink_interval passthrough
  /// Optional dot-row cache shared across the kernel columns of one grid
  /// sweep (must be built over the same training matrix).  Null = none.
  std::shared_ptr<GramCache> gram_cache;
};

class SvmModel {
 public:
  /// Trains on the user's window matrix: fit_path with the one regularizer
  /// config.regularizer.  `dimension` is the feature-space dimension (used
  /// only to resolve gamma="auto").  Throws std::invalid_argument on empty
  /// data or a regularizer outside (0, 1].
  [[nodiscard]] static SvmModel train(SvmKind kind, const util::FeatureMatrix& data,
                                      const SvmConfig& config,
                                      std::size_t dimension);

  /// Warm-started regularizer path: one model per nu or C in `regularizers`
  /// (in the given order) for the fixed kernel of `config`, sharing a single
  /// QMatrix — and therefore one hot kernel-row cache — across the whole
  /// sweep, and seeding each solve from the previous cell's alpha projected
  /// onto the new feasible set.  Returns models aligned with `regularizers`;
  /// `config.regularizer` is ignored.  Per-cell solver statistics, support
  /// rows and the shared cache totals land in `*stats` when given.
  [[nodiscard]] static std::vector<SvmModel> fit_path(
      SvmKind kind, const util::FeatureMatrix& data, const SvmConfig& config,
      std::span<const double> regularizers, std::size_t dimension,
      PathStats* stats = nullptr);

  /// Reconstructs a model from persisted parts (model_io): the decision
  /// scalars as in scalar0()/scalar1().
  [[nodiscard]] static SvmModel from_parts(SvmKind kind, KernelParams kernel,
                                           util::FeatureMatrix support_vectors,
                                           std::vector<double> coefficients,
                                           double scalar0, double scalar1 = 0.0);

  /// Decision value of `x`, whose squared norm the caller computes (once
  /// per scored vector, not once per kernel evaluation).  `tier` selects the
  /// transform precision (svm/kernel.h).  Forwarded through view_of
  /// (svm/model_io.h), where the decision arithmetic lives.
  [[nodiscard]] double decision_value(
      const util::SparseVector& x, double x_sqnorm,
      TransformMode tier = TransformMode::kExact) const;
  /// Batch: decision value of every row of `queries`, written to `out`.
  void decision_values(const util::FeatureMatrix& queries,
                       std::span<double> out,
                       TransformMode tier = TransformMode::kExact) const;

  [[nodiscard]] SvmKind kind() const noexcept { return kind_; }
  [[nodiscard]] const KernelParams& kernel() const noexcept { return kernel_; }
  /// The support-vector set as an owned CSR block.
  [[nodiscard]] const util::FeatureMatrix& support_vectors() const noexcept {
    return support_vectors_;
  }
  /// alpha_i > 0, aligned with the SV rows.
  [[nodiscard]] const std::vector<double>& coefficients() const noexcept {
    return coefficients_;
  }
  /// rho (OC-SVM) | R^2 (SVDD).
  [[nodiscard]] double scalar0() const noexcept { return scalar0_; }
  /// 0 (OC-SVM) | alpha^T K alpha (SVDD).
  [[nodiscard]] double scalar1() const noexcept { return scalar1_; }
  /// Instrumentation of the SMO solve that produced this model (zeros for
  /// models reconstructed via from_parts).
  [[nodiscard]] const SolverStats& solver_stats() const noexcept {
    return solver_stats_;
  }

 private:
  SvmModel() = default;

  /// Keeps the rows with alpha > 1e-12 as support vectors; their training
  /// row indices are appended to `support_rows` when non-null.
  static SvmModel from_solution(SvmKind kind, const util::FeatureMatrix& data,
                                const KernelParams& kernel, double upper_bound,
                                const QMatrix& q, const SolverResult& solved,
                                std::vector<std::uint32_t>* support_rows);

  SvmKind kind_ = SvmKind::kOcSvm;
  KernelParams kernel_;
  util::FeatureMatrix support_vectors_;
  std::vector<double> coefficients_;
  double scalar0_ = 0.0;
  double scalar1_ = 0.0;
  SolverStats solver_stats_;
};

/// OC-SVM's rho, such that free SVs sit on the boundary.  `gradient` and
/// `alpha` are solver outputs; rho = mean gradient over free vectors, or
/// the midpoint of the KKT bounds when none are free.
[[nodiscard]] double compute_rho(std::span<const double> alpha,
                                 std::span<const double> gradient,
                                 double upper_bound);

}  // namespace wtp::svm
