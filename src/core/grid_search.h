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

/// How stage 2 trains and scores the cells of one kernel's regularizer
/// column.
///   kWarmPath:    one fit_path sweep per (user, kernel) — a shared QMatrix
///                 and kernel cache across the column, each solve seeded
///                 from the previous cell — scored in one pass by
///                 column_acceptance (the production path).
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

/// One kernel's regularizer column for `user` (the kWarmPath unit): one
/// fit_path sweep over `*train_windows.at(user)` at kGridCellEps, then one
/// scoring pass over every user's windows.  Per query tile the pass makes a
/// single kernel_block call over all l training rows and each cell reads its
/// support rows out of it, so kernel work per column is l x Q rather than
/// sum_r |SV_r| x Q.  Each entry's ratios are bitwise equal to
/// profile_acceptance(UserProfile::from_model(user, ..., model_r),
/// train_windows, kGridAcceptSlack) on the same fit_path models.  An empty
/// own-window matrix or a failed fit marks the whole column untrainable
/// ({0, 100}).  `gram` (may be null) is the user's dot-row cache shared
/// across kernel columns.  Entries are aligned with `regularizers`.
[[nodiscard]] std::vector<ParamGridEntry> regularizer_path_entries(
    const std::string& user, ClassifierType type,
    const svm::KernelParams& kernel, std::span<const double> regularizers,
    const MatrixByUser& train_windows, std::size_t dimension,
    const std::shared_ptr<svm::GramCache>& gram);

/// Stage 2 (Tab. III): full kernel x regularizer grid for one user at a
/// fixed window configuration.  Ratios are computed on training windows, as
/// in stage 1.  Results are ordered kernel-major, regularizer-minor.
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
/// aligned with dataset.user_ids().
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
