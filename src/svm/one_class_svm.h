// nu-One-Class SVM (Schölkopf et al. 2001; paper §II-A).
//
// Separates the training data from the origin by a maximum-margin
// hyperplane in feature space.  nu upper-bounds the fraction of training
// outliers and lower-bounds the fraction of support vectors.  The dual
// (paper eq. 5) is solved by the generic SMO solver with Q = K, p = 0,
// bounds [0, 1] after rescaling alpha by nu*l, sum(alpha) = nu*l.
//
// (LibSVM scales the same dual so that sum(alpha) = 1, U = 1/(nu l); the
// decision function is identical up to that constant factor.  We keep the
// paper's normalization.)
//
// Training consumes a util::FeatureMatrix (the canonical CSR data plane);
// the trained support-vector set is kept as a compact owned FeatureMatrix
// block so decision functions stream SVs contiguously through the batch
// kernel path.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "svm/kernel.h"
#include "svm/smo_solver.h"
#include "util/feature_matrix.h"
#include "util/sparse_vector.h"

namespace wtp::svm {

struct OneClassSvmConfig {
  double nu = 0.5;            ///< in (0, 1]
  KernelParams kernel;        ///< gamma <= 0 resolves to 1/dimension
  double eps = 1e-3;          ///< SMO stopping tolerance
  std::size_t cache_bytes = std::size_t{32} << 20;
  bool shrinking = true;      ///< SolverConfig::shrinking passthrough
  std::size_t shrink_interval = 0;  ///< SolverConfig::shrink_interval passthrough
  /// Optional dot-row cache shared across the kernel columns of one grid
  /// sweep (must be built over the same training matrix).  Null = none.
  std::shared_ptr<GramCache> gram_cache;
};

/// Trained model: decision f(x) = sum_i alpha_i k(sv_i, x) - rho  (eq. 6);
/// x is accepted when f(x) >= 0.
class OneClassSvmModel {
 public:
  /// Trains on the user's window matrix.  `dimension` is the feature-space
  /// dimension (used only to resolve gamma="auto").  Throws
  /// std::invalid_argument on empty data or nu outside (0, 1].
  [[nodiscard]] static OneClassSvmModel train(const util::FeatureMatrix& data,
                                              const OneClassSvmConfig& config,
                                              std::size_t dimension);

  /// Warm-started regularizer path: trains one model per nu in `nus` (in
  /// the given order) for the fixed kernel of `config`, sharing a single
  /// QMatrix — and therefore one hot kernel-row cache — across the whole
  /// sweep, and seeding each solve from the previous cell's alpha projected
  /// onto the new feasible set (sum nu*l).  Returns models aligned with
  /// `nus`; `config.nu` is ignored.  Per-cell solver statistics, support
  /// rows and the shared cache totals land in `*stats` when given.
  [[nodiscard]] static std::vector<OneClassSvmModel> fit_path(
      const util::FeatureMatrix& data, const OneClassSvmConfig& config,
      std::span<const double> nus, std::size_t dimension,
      PathStats* stats = nullptr);

  /// Reconstructs a model from persisted parts (model_io).
  [[nodiscard]] static OneClassSvmModel from_parts(
      KernelParams kernel, util::FeatureMatrix support_vectors,
      std::vector<double> coefficients, double rho);

  /// Decision values, forwarded through view_of (svm/model_io.h), where the
  /// decision arithmetic lives.
  [[nodiscard]] double decision_value(const util::SparseVector& x) const;
  /// Variant with the query's squared norm precomputed by the caller (it is
  /// needed once per scored vector, not once per kernel evaluation).
  /// `tier` selects the transform precision (svm/kernel.h).
  [[nodiscard]] double decision_value(
      const util::SparseVector& x, double x_sqnorm,
      TransformMode tier = TransformMode::kExact) const;
  /// Batch: decision value of every row of `queries`, written to `out`.
  void decision_values(const util::FeatureMatrix& queries,
                       std::span<double> out,
                       TransformMode tier = TransformMode::kExact) const;
  [[nodiscard]] bool accepts(const util::SparseVector& x) const {
    return decision_value(x) >= 0.0;
  }

  /// The support-vector set as an owned CSR block.
  [[nodiscard]] const util::FeatureMatrix& support_vectors() const noexcept {
    return support_vectors_;
  }
  [[nodiscard]] const std::vector<double>& coefficients() const noexcept {
    return coefficients_;
  }
  [[nodiscard]] double rho() const noexcept { return rho_; }
  [[nodiscard]] const KernelParams& kernel() const noexcept { return kernel_; }
  /// Fraction of training points with alpha at the upper bound (outliers);
  /// bounded above by nu.
  [[nodiscard]] double bounded_fraction() const noexcept { return bounded_fraction_; }
  /// Instrumentation of the SMO solve that produced this model (zeros for
  /// models reconstructed via from_parts).
  [[nodiscard]] const SolverStats& solver_stats() const noexcept {
    return solver_stats_;
  }

 private:
  OneClassSvmModel() = default;

  /// Keeps the rows with alpha > 1e-12 as support vectors; their training
  /// row indices are appended to `support_rows` when non-null.
  static OneClassSvmModel from_solution(
      const util::FeatureMatrix& data, const KernelParams& kernel,
      const SolverResult& solved, std::vector<std::uint32_t>* support_rows);

  KernelParams kernel_;
  util::FeatureMatrix support_vectors_;
  std::vector<double> coefficients_;  ///< alpha_i > 0, aligned with SV rows
  double rho_ = 0.0;
  double bounded_fraction_ = 0.0;
  SolverStats solver_stats_;
};

/// Shared helper: rho such that free SVs sit on the boundary.  `gradient`
/// and `alpha` are solver outputs; rho = mean gradient over free vectors,
/// or the midpoint of the KKT bounds when none are free.
[[nodiscard]] double compute_rho(std::span<const double> alpha,
                                 std::span<const double> gradient,
                                 double upper_bound);

}  // namespace wtp::svm
