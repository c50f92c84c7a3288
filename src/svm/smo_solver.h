// Generic SMO solver for the one-class quadratic programs (paper §II).
//
// Solves
//     min_alpha  0.5 alpha^T Q alpha + p^T alpha
//     s.t.       0 <= alpha_i <= U,   sum_i alpha_i = Delta
//
// which covers both duals used by the paper:
//   * nu-OC-SVM (eq. 5):  Q = K,  p = 0,      U = 1,   Delta = nu * l
//   * SVDD      (eq. 10): Q = 2K, p_i = -K_ii, U = C,  Delta = 1
//     (the max problem negated into min form)
//
// The working-set selection is the second-order "maximal violating pair"
// rule of LibSVM (WSS2, Fan et al. 2005), specialized to all-positive
// labels.  Kernel rows are float and LRU-cached.
//
// Two LibSVM-style accelerations sit behind SolverConfig:
//   * shrinking: bounded variables that strongly satisfy their KKT
//     condition are periodically dropped from the active set; the full
//     gradient is reconstructed exactly (via the G_bar decomposition)
//     before any global convergence claim, so the returned gradient is
//     always the true full-length G = Q alpha + p.
//   * warm starts: solve_smo accepts an initial alpha, projected onto the
//     feasible set deterministically (clip to [0, U]; scale down or fill
//     headroom in index order to restore the sum).  Regularizer paths seed
//     each solve from the previous cell's solution.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "svm/kernel.h"
#include "svm/kernel_cache.h"
#include "util/feature_matrix.h"

namespace wtp::svm {

/// Kernel-row cache budget of the QMatrix behind every model fit
/// (SvmModel::fit_path).
inline constexpr std::size_t kKernelCacheBytes = std::size_t{32} << 20;

/// Lazily evaluated, cached kernel/Q matrix over a CSR training set.
/// `scale` multiplies every entry (1 for OC-SVM's K, 2 for SVDD's 2K).
/// Row i is a one-query kernel_block of the training matrix against its own
/// row i, streaming the matrix contiguously; the matrix's cached squared
/// norms serve every RBF evaluation.  The matrix must outlive the QMatrix.
class QMatrix {
 public:
  QMatrix(const util::FeatureMatrix& data, KernelParams params, double scale,
          std::size_t cache_bytes);
  /// With a shared GramCache (over the SAME matrix; throws
  /// std::invalid_argument otherwise): row misses fetch the raw dot row
  /// from the shared cache and apply only the kernel transform, so a grid
  /// sweep computes each row's sparse dots once across all its kernels.
  /// Bit-identical to the direct path.  The gram cache must outlive this.
  QMatrix(const util::FeatureMatrix& data, KernelParams params, double scale,
          std::size_t cache_bytes, std::shared_ptr<GramCache> gram);

  /// Row i of Q (length l), cached.
  [[nodiscard]] std::span<const float> row(std::size_t i);

  /// Diagonal entry Q_ii (precomputed, exact double).
  [[nodiscard]] double diag(std::size_t i) const noexcept { return diag_[i]; }

  /// Raw kernel k(x_i, x_i) (before scaling); SVDD needs it for p.
  [[nodiscard]] double kernel_diag(std::size_t i) const noexcept {
    return kernel_diag_[i];
  }

  [[nodiscard]] std::size_t size() const noexcept { return data_->rows(); }
  [[nodiscard]] const KernelParams& params() const noexcept { return params_; }

  /// Lifetime totals of the underlying row cache.  A regularizer path that
  /// shares one QMatrix across solves accumulates hits here; tests assert
  /// the reuse instead of guessing at it.
  [[nodiscard]] std::size_t cache_hits() const noexcept { return cache_.hits(); }
  [[nodiscard]] std::size_t cache_misses() const noexcept {
    return cache_.misses();
  }

 private:
  const util::FeatureMatrix* data_;
  KernelParams params_;
  double scale_;
  std::vector<double> kernel_diag_;  // k(x_i, x_i)
  std::vector<double> diag_;         // scale * k(x_i, x_i)
  std::vector<double> row_scratch_;  // double kernel row before float cast
  KernelCache cache_;
  std::shared_ptr<GramCache> gram_;  // optional cross-kernel dot-row share
};

struct SolverConfig {
  double eps = 1e-3;          ///< KKT violation tolerance (LibSVM default)
  std::size_t max_iter = 0;   ///< 0 = auto: max(10^7, 100*l)
  /// Periodically remove bounded, KKT-satisfied variables from the active
  /// set (LibSVM-style).  The unshrunk path (false) is the reference
  /// oracle; tests/svm/solver_equivalence_test.cpp pins both to the same
  /// solution.
  bool shrinking = true;
  std::size_t shrink_interval = 0;  ///< iterations between passes; 0 = min(l, 1000)
};

/// Per-solve instrumentation: iteration/shrink counts plus the KernelCache
/// traffic attributable to this solve (deltas of the QMatrix totals).
struct SolverStats {
  std::size_t iterations = 0;
  bool converged = false;
  std::size_t shrink_events = 0;      ///< shrink passes that removed >= 1 variable
  std::size_t shrunk_variables = 0;   ///< total variables removed, summed over passes
  std::size_t reconstructions = 0;    ///< exact full-gradient rebuilds
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
};

struct SolverResult {
  std::vector<double> alpha;
  std::vector<double> gradient;  ///< full-length G_i = (Q alpha)_i + p_i
  /// Bounded-part decomposition G_bar_i = U * sum_{j at upper} Q_ij, exact
  /// at exit.  Empty when the solve ran with shrinking off.  Carried across
  /// the cells of a regularizer path (WarmSeed) so the next solve can seed
  /// its gradient incrementally.
  std::vector<double> g_bar;
  double objective = 0.0;        ///< 0.5 a^T Q a + p^T a
  SolverStats stats;
};

/// A previous solution of the SAME QMatrix, handed to solve_smo so a path
/// solve seeds G (and G_bar) by updating only the entries its feasibility
/// projection changed, instead of rebuilding them from every nonzero alpha.
/// `upper_bound` is the bound that produced `alpha`; `g_bar` may be empty
/// (previous solve unshrunk).
struct WarmSeed {
  std::span<const double> alpha;
  std::span<const double> gradient;
  std::span<const double> g_bar;
  double upper_bound = 0.0;
};

/// Statistics of a warm-started regularizer path (fit_path): one
/// SolverStats per grid cell, in sweep order, plus the lifetime totals of
/// the QMatrix row cache shared by every cell.  hits > 0 across a sweep is
/// the observable proof the path actually reused the kernel work.
/// `support_rows[r]` lists, in support-vector order, the training-matrix
/// rows that cell r's model kept as support vectors (alpha > 1e-12): the
/// grid's pair scorer can then read every cell's kernel values out of one
/// block over the training matrix instead of one block per model.
struct PathStats {
  std::vector<SolverStats> cells;
  std::vector<std::vector<std::uint32_t>> support_rows;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
};

/// Runs SMO.  Throws std::invalid_argument when the constraint set is empty
/// (Delta < 0 or Delta > U*l) or sizes mismatch.  A non-empty `warm_start`
/// (length l) seeds the solve after deterministic projection onto the
/// feasible set; empty falls back to LibSVM's greedy one-class fill.
[[nodiscard]] SolverResult solve_smo(QMatrix& q, std::span<const double> p,
                                     double upper_bound, double alpha_sum,
                                     const SolverConfig& config = {},
                                     std::span<const double> warm_start = {});

/// Warm-started variant for regularizer paths: `seed.alpha` is projected
/// onto the new feasible set exactly like the span overload, but the
/// gradient is seeded from `seed.gradient` plus one cached-row update per
/// projected-away coefficient (and G_bar from `seed.g_bar` plus one update
/// per bound-status change) — O(changed rows) instead of O(support rows).
[[nodiscard]] SolverResult solve_smo(QMatrix& q, std::span<const double> p,
                                     double upper_bound, double alpha_sum,
                                     const SolverConfig& config,
                                     const WarmSeed& seed);

}  // namespace wtp::svm
