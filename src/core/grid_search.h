// Learning-parameter optimization (paper §IV-C).
//
// Two stages, exactly as in the paper:
//   1. Global window grid (Tab. II): window duration D and shift S are
//      optimized once for all users, with a fixed classifier configuration
//      (the paper uses SVDD, linear kernel, C = 0.5).  ACC_self is computed
//      on the training windows themselves; ACC_other against the other
//      users' training windows.
//   2. Per-user parameter grid (Tab. III): with (D, S) fixed, each user's
//      kernel and nu/C are chosen to maximize ACC = ACC_self - ACC_other.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/metrics.h"
#include "core/profiler.h"
#include "features/window.h"
#include "util/thread_pool.h"

namespace wtp::core {

/// The paper's Tab. II / Tab. IV window grid.
[[nodiscard]] std::vector<features::WindowConfig> paper_window_grid();

/// The paper's Tab. III regularizer column (0.999 .. 0.001).
[[nodiscard]] std::vector<double> paper_regularizer_grid();

/// All four kernels of Tab. III.
[[nodiscard]] std::vector<svm::KernelParams> paper_kernel_grid(double gamma = 0.0);

struct WindowGridEntry {
  features::WindowConfig window;
  AcceptanceRatios ratios;  ///< averaged over all users
};

/// Stage 1 (Tab. II): evaluates each window configuration with fixed
/// `base_params`, averaging ratios over all dataset users.  Parallel over
/// (window, user) pairs.  Infeasible/failed trainings contribute 0/100 (a
/// maximally bad score) rather than aborting the sweep.
[[nodiscard]] std::vector<WindowGridEntry> window_grid_search(
    const ProfilingDataset& dataset,
    std::span<const features::WindowConfig> window_grid,
    const ProfileParams& base_params, util::ThreadPool& pool);

/// Best entry by ACC_self (the paper's Tab. II retention criterion: D=60s,
/// S=30s wins on self-acceptance despite D=10m winning on ACC).
[[nodiscard]] const WindowGridEntry& best_by_acc_self(
    std::span<const WindowGridEntry> entries);
/// Best entry by global ACC.
[[nodiscard]] const WindowGridEntry& best_by_acc(
    std::span<const WindowGridEntry> entries);

struct ParamGridEntry {
  ProfileParams params;
  AcceptanceRatios ratios;
  bool trainable = true;  ///< false when training failed (infeasible config)
};

/// How stage 2 trains and scores its cells.
///   kWarmPath:    one fit_path sweep per (user, kernel) — a shared QMatrix
///                 and kernel cache across the regularizer column, each solve
///                 seeded from the previous cell — scored by the pair scorer
///                 (score_param_grid; the production path).
///   kColdPerCell: every cell trains from scratch and is scored on its own
///                 through profile_acceptance; kept as the per-cell oracle.
///
/// Both modes solve each cell's QP to kGridCellEps and count acceptances at
/// kGridAcceptSlack, but they reach different near-optimal points, so a
/// window whose decision value lies within solver noise of -kGridAcceptSlack
/// can flip.  What is enforced: the two modes select the same parameters
/// (optimize_all_users tests, and the layer ledger's train25 RBF check);
/// their full grids agree on the test dataset (param_grid_search test).
/// Individual ratios may differ by a window: the ledger saw ACC_other move
/// by one window at nu = 0.001 for two of its trace seeds.
enum class GridSearchMode : std::uint8_t { kWarmPath, kColdPerCell };

/// Stage-2 cells solve tighter than the production default (kGridCellEps)
/// and count a window as accepted when its decision value is
/// >= -kGridAcceptSlack.  Free support vectors sit exactly on the decision
/// boundary, so at slack 0 their accept/reject sign — and therefore ACC —
/// would depend on which near-optimal point a solve happened to stop at.
inline constexpr double kGridCellEps = 1e-6;
inline constexpr double kGridAcceptSlack = 1e-4;

/// The kWarmPath grid of every user in `column_users` (each a key of
/// `train_matrices`), scored on every user's windows: the one stage-2 scorer.
/// Three phases:
///   1. Fit: one fit_path sweep per (column user, kernel) at kGridCellEps,
///      in parallel.  Each cell keeps only its support rows
///      (PathStats::support_rows), coefficients and decision scalars; the
///      models are dropped at once, so no two columns' SV copies need
///      coexist, and a user's dot-row cache once its last column is fit.
///   2. Pair blocks: one task per unordered user pair {m, q} with m a column
///      user.  Per 64 of q's windows it makes one dot_block against all of
///      m's training rows; each kernel transforms a copy (kernel_transform),
///      which is reduced into m's cells (queries from q) and, when q is a
///      column user too, into q's cells (queries from m) — the same values,
///      because a dot is symmetric and rbf's x^2 + y^2 commutes.  Each cell
///      reduces one chain per query, in SV order, and finishes it through
///      ModelView::decision_from_sum.  So the dot work is one block per
///      pair, U(U+1)/2 for U column users out of U, and U for one column
///      user, whatever the number of kernels.
///   3. Ratios from the accept counts, users in map order.
/// Each entry's ratios are bitwise equal to
/// profile_acceptance(UserProfile::from_model(user, ..., model_r),
/// train_matrices, kGridAcceptSlack) on the same fit_path models.  An empty
/// own-window matrix or a failed fit marks a (user, kernel) column
/// untrainable ({0, 100}).  Per-thread scratch: a few kColumnTile x l
/// blocks (l = m's rows) plus the transposed direction's chains, one per
/// (cell, row of m).  The result does not depend on the pool's width.
/// Returns one grid per column user, kernel-major, regularizer-minor.
[[nodiscard]] std::vector<std::vector<ParamGridEntry>> score_param_grid(
    const MatrixByUser& train_matrices, std::span<const std::string> column_users,
    ClassifierType type, std::span<const svm::KernelParams> kernels,
    std::span<const double> regularizers, std::size_t dimension,
    util::ThreadPool& pool);

/// The pair scorer's reduction, one chain per lane: for the support rows i
/// in [begin, end), in SV order, acc[q] += coefficients[i] *
/// block[(rows[i] - first) * lanes + q] for every lane q < lanes.  A lane
/// runs ModelView::decision_from_kernels' sum chain in its operation order,
/// and the library is built for the baseline ISA, which has no FMA to
/// contract a * b + c into, so the lane ends with the same bits.  Chains
/// may be continued across calls (the transposed direction does, tile by
/// tile).
void accumulate_support_rows(std::span<const std::uint32_t> rows,
                             std::span<const double> coefficients,
                             std::size_t begin, std::size_t end,
                             std::size_t first, const double* block,
                             std::size_t lanes, double* acc);

/// Stage 2 (Tab. III): full kernel x regularizer grid for one user at a
/// fixed window configuration.  Ratios are computed on training windows, as
/// in stage 1.  Results are ordered kernel-major, regularizer-minor.
/// kWarmPath is score_param_grid with this one column user.
[[nodiscard]] std::vector<ParamGridEntry> param_grid_search(
    const ProfilingDataset& dataset, const std::string& user,
    const features::WindowConfig& window, ClassifierType type,
    std::span<const svm::KernelParams> kernels,
    std::span<const double> regularizers, util::ThreadPool& pool,
    GridSearchMode mode = GridSearchMode::kWarmPath);

/// Best trainable entry by ACC (ties: first in grid order).  Throws
/// std::runtime_error when nothing was trainable.
[[nodiscard]] const ParamGridEntry& best_params(
    std::span<const ParamGridEntry> entries);

/// Runs stage 2 for every user and returns the chosen per-user parameters,
/// aligned with dataset.user_ids().  kWarmPath is score_param_grid with
/// every user a column user.
[[nodiscard]] std::vector<ProfileParams> optimize_all_users(
    const ProfilingDataset& dataset, const features::WindowConfig& window,
    ClassifierType type, std::span<const svm::KernelParams> kernels,
    std::span<const double> regularizers, util::ThreadPool& pool,
    GridSearchMode mode = GridSearchMode::kWarmPath);

/// Trains final profiles for all users with their optimized parameters.
[[nodiscard]] std::vector<UserProfile> train_profiles(
    const ProfilingDataset& dataset, const features::WindowConfig& window,
    std::span<const ProfileParams> params, util::ThreadPool& pool);

/// Test-set evaluation (Tab. IV / Tab. V): feeds every user's *test*
/// windows to every profile.
struct TestEvaluation {
  AcceptanceRatios mean_ratios;
  ConfusionMatrix confusion;
};
[[nodiscard]] TestEvaluation evaluate_on_test(const ProfilingDataset& dataset,
                                              const features::WindowConfig& window,
                                              std::span<const UserProfile> profiles,
                                              util::ThreadPool& pool);

}  // namespace wtp::core
