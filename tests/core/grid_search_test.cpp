#include "core/grid_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <thread>
#include <utility>

#include "core/test_trace.h"
#include "obs/registry.h"
#include "util/rng.h"

namespace wtp::core {
namespace {

util::ThreadPool& pool() {
  static util::ThreadPool instance{2};
  return instance;
}

TEST(PaperGrids, WindowGridMatchesTabII) {
  const auto grid = paper_window_grid();
  ASSERT_EQ(grid.size(), 6u);
  EXPECT_EQ(grid[0], (features::WindowConfig{60, 6}));
  EXPECT_EQ(grid[1], (features::WindowConfig{60, 30}));  // retained values
  EXPECT_EQ(grid[5], (features::WindowConfig{3600, 300}));
}

TEST(PaperGrids, RegularizerGridMatchesTabIII) {
  const auto grid = paper_regularizer_grid();
  ASSERT_EQ(grid.size(), 15u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.999);
  EXPECT_DOUBLE_EQ(grid.back(), 0.001);
}

TEST(PaperGrids, KernelGridHasAllFourKernels) {
  const auto kernels = paper_kernel_grid();
  ASSERT_EQ(kernels.size(), 4u);
  EXPECT_EQ(kernels[0].type, svm::KernelType::kLinear);
  EXPECT_EQ(kernels[1].type, svm::KernelType::kPolynomial);
  EXPECT_EQ(kernels[2].type, svm::KernelType::kRbf);
  EXPECT_EQ(kernels[3].type, svm::KernelType::kSigmoid);
}

ProfileParams base_params() {
  ProfileParams params;
  params.type = ClassifierType::kSvdd;
  params.kernel = {svm::KernelType::kLinear, 0.0, 0.0, 3};
  params.regularizer = 0.5;
  return params;
}

TEST(WindowGridSearch, EvaluatesEveryConfiguration) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const std::vector<features::WindowConfig> grid{{60, 30}, {300, 60}};
  const auto entries = window_grid_search(dataset, grid, base_params(), pool());
  ASSERT_EQ(entries.size(), 2u);
  for (const auto& entry : entries) {
    EXPECT_GT(entry.ratios.acc_self, 0.0);
    EXPECT_GE(entry.ratios.acc_other, 0.0);
    EXPECT_LE(entry.ratios.acc_self, 100.0);
  }
}

TEST(WindowGridSearch, BestSelectorsPickCorrectEntries) {
  std::vector<WindowGridEntry> entries(3);
  entries[0].window = {60, 30};
  entries[0].ratios = {.acc_self = 95.0, .acc_other = 40.0};  // acc 55
  entries[1].window = {300, 60};
  entries[1].ratios = {.acc_self = 90.0, .acc_other = 5.0};   // acc 85
  entries[2].window = {600, 60};
  entries[2].ratios = {.acc_self = 85.0, .acc_other = 2.0};   // acc 83
  EXPECT_EQ(best_by_acc_self(entries).window, (features::WindowConfig{60, 30}));
  EXPECT_EQ(best_by_acc(entries).window, (features::WindowConfig{300, 60}));
  EXPECT_THROW((void)best_by_acc_self(std::vector<WindowGridEntry>{}),
               std::invalid_argument);
}

TEST(ParamGridSearch, ProducesKernelMajorOrder) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const auto kernels = paper_kernel_grid();
  const std::vector<double> regs{0.5, 0.1};
  const auto entries =
      param_grid_search(dataset, dataset.user_ids().front(), {60, 30},
                        ClassifierType::kSvdd, kernels, regs, pool());
  ASSERT_EQ(entries.size(), kernels.size() * regs.size());
  EXPECT_EQ(entries[0].params.kernel.type, svm::KernelType::kLinear);
  EXPECT_DOUBLE_EQ(entries[0].params.regularizer, 0.5);
  EXPECT_EQ(entries[1].params.kernel.type, svm::KernelType::kLinear);
  EXPECT_DOUBLE_EQ(entries[1].params.regularizer, 0.1);
  EXPECT_EQ(entries[2].params.kernel.type, svm::KernelType::kPolynomial);
}

TEST(ParamGridSearch, BestParamsPicksHighestAcc) {
  std::vector<ParamGridEntry> entries(3);
  entries[0].ratios = {.acc_self = 90.0, .acc_other = 50.0};
  entries[1].ratios = {.acc_self = 85.0, .acc_other = 10.0};
  entries[2].ratios = {.acc_self = 99.0, .acc_other = 90.0};
  entries[2].trainable = false;  // excluded despite ordering
  entries[0].params.regularizer = 0.1;
  entries[1].params.regularizer = 0.2;
  const auto& best = best_params(entries);
  EXPECT_DOUBLE_EQ(best.params.regularizer, 0.2);
}

TEST(ParamGridSearch, BestParamsThrowsWhenNothingTrainable) {
  std::vector<ParamGridEntry> entries(2);
  entries[0].trainable = false;
  entries[1].trainable = false;
  EXPECT_THROW((void)best_params(entries), std::runtime_error);
}

TEST(OptimizeAllUsers, ReturnsParamsPerUser) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const std::vector<svm::KernelParams> kernels{
      {svm::KernelType::kLinear, 0.0, 0.0, 3},
      {svm::KernelType::kRbf, 0.0, 0.0, 3}};
  const std::vector<double> regs{0.5, 0.1};
  const auto params = optimize_all_users(dataset, {60, 30}, ClassifierType::kOcSvm,
                                         kernels, regs, pool());
  ASSERT_EQ(params.size(), dataset.user_count());
  for (const auto& p : params) {
    EXPECT_EQ(p.type, ClassifierType::kOcSvm);
    EXPECT_TRUE(p.regularizer == 0.5 || p.regularizer == 0.1);
  }
}

// Determinism regression: the warm-started fit_path refactor parallelizes
// stage 2 over (user, kernel) columns writing into fixed result slots, so
// the grid — and therefore the selected parameters — must be bit-identical
// whatever the pool width, and identical to the cold per-cell reference.
TEST(OptimizeAllUsers, SelectionDeterministicAcrossPoolSizesAndModes) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const auto kernels = paper_kernel_grid();
  const std::vector<double> regs{0.9, 0.5, 0.1};

  auto run = [&](std::size_t threads, GridSearchMode mode) {
    util::ThreadPool local_pool{threads};
    return optimize_all_users(dataset, {60, 30}, ClassifierType::kSvdd,
                              kernels, regs, local_pool, mode);
  };

  const std::size_t hw = std::max<std::size_t>(
      2, std::thread::hardware_concurrency());
  const auto warm1 = run(1, GridSearchMode::kWarmPath);
  const auto warm2 = run(2, GridSearchMode::kWarmPath);
  const auto warm_hw = run(hw, GridSearchMode::kWarmPath);
  const auto cold = run(2, GridSearchMode::kColdPerCell);

  ASSERT_EQ(warm1.size(), dataset.user_count());
  ASSERT_EQ(warm2.size(), warm1.size());
  ASSERT_EQ(warm_hw.size(), warm1.size());
  ASSERT_EQ(cold.size(), warm1.size());
  for (std::size_t u = 0; u < warm1.size(); ++u) {
    EXPECT_EQ(warm2[u], warm1[u]) << "pool width 2 vs 1, user " << u;
    EXPECT_EQ(warm_hw[u], warm1[u]) << "pool width hw vs 1, user " << u;
    EXPECT_EQ(cold[u], warm1[u]) << "cold vs warm path, user " << u;
  }
}

// The full per-cell grids (scores included) must agree between the warm
// path and the cold reference, not just the argmax.
TEST(ParamGridSearch, WarmPathGridMatchesColdReference) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const auto kernels = paper_kernel_grid();
  const std::vector<double> regs{0.9, 0.5, 0.1};
  const auto& user = dataset.user_ids().front();

  const auto warm =
      param_grid_search(dataset, user, {60, 30}, ClassifierType::kOcSvm,
                        kernels, regs, pool(), GridSearchMode::kWarmPath);
  const auto cold =
      param_grid_search(dataset, user, {60, 30}, ClassifierType::kOcSvm,
                        kernels, regs, pool(), GridSearchMode::kColdPerCell);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i].params, cold[i].params) << "cell " << i;
    EXPECT_EQ(warm[i].trainable, cold[i].trainable) << "cell " << i;
    // Warm solves stop at the same tolerance as cold ones; acceptance is a
    // counting metric, so the scores must agree exactly on ties of the
    // underlying accept/reject decisions.
    EXPECT_NEAR(warm[i].ratios.acc_self, cold[i].ratios.acc_self, 1e-9)
        << "cell " << i;
    EXPECT_NEAR(warm[i].ratios.acc_other, cold[i].ratios.acc_other, 1e-9)
        << "cell " << i;
  }
}

// One user's kernel column through the pair scorer (score_param_grid with one
// column user and one kernel): each cell reads its kernel values out of one
// block per query user, and its ratios must be bitwise equal to scoring each
// fit_path model on its own through profile_acceptance.
class ColumnScorer : public ::testing::Test {
 protected:
  /// Every dataset user's training windows at (60, 30), plus a user with no
  /// windows at all.
  static MatrixByUser windows_with_empty_user() {
    const ProfilingDataset& dataset = testing::tiny_dataset();
    MatrixByUser windows;
    for (const auto& user : dataset.user_ids()) {
      windows.emplace(user, dataset.train_matrix(user, {60, 30}));
    }
    windows.emplace(
        kEmptyUser, std::make_shared<const util::FeatureMatrix>(
                        util::FeatureMatrixBuilder{}.build(
                            dataset.schema().dimension())));
    return windows;
  }

  /// One kernel's regularizer column for `user`, through the pair scorer.
  static std::vector<ParamGridEntry> column(const std::string& user,
                                            ClassifierType type,
                                            const svm::KernelParams& kernel,
                                            std::span<const double> regs,
                                            const MatrixByUser& windows,
                                            std::size_t dim) {
    return std::move(score_param_grid(windows, {&user, 1}, type, {&kernel, 1},
                                      regs, dim, pool())
                         .front());
  }

  static constexpr const char* kEmptyUser = "~no-windows";
};

/// profile_acceptance per cell on fit_path models: the scorer's oracle.
std::vector<AcceptanceRatios> per_cell_ratios(
    const std::string& user, ClassifierType type, std::span<const double> regs,
    std::vector<svm::SvmModel> models, const MatrixByUser& windows) {
  std::vector<AcceptanceRatios> ratios;
  for (std::size_t r = 0; r < models.size(); ++r) {
    ProfileParams params;
    params.type = type;
    params.kernel = models[r].kernel();
    params.regularizer = regs[r];
    ratios.push_back(profile_acceptance(
        UserProfile::from_model(user, params, std::move(models[r])), windows,
        kGridAcceptSlack));
  }
  return ratios;
}

TEST_F(ColumnScorer, RatiosBitwiseEqualPerCellProfileAcceptance) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const MatrixByUser windows = windows_with_empty_user();
  const std::string& user = dataset.user_ids().front();
  const util::FeatureMatrix& own = *windows.at(user);
  const std::size_t dim = dataset.schema().dimension();
  // nu = 0.999 keeps almost every row as a support vector, nu = 0.001 only
  // a handful.
  const std::vector<double> regs{0.999, 0.5, 0.05, 0.001};

  for (const ClassifierType type : {ClassifierType::kOcSvm, ClassifierType::kSvdd}) {
    for (const auto& kernel : paper_kernel_grid()) {
      const std::string cell = std::string{to_string(type)} + "/" +
                               std::string{svm::to_string(kernel.type)};
      const auto entries = column(user, type, kernel, regs, windows, dim);
      svm::SvmConfig config;
      config.kernel = kernel;
      config.eps = kGridCellEps;
      svm::PathStats path;
      const std::vector<AcceptanceRatios> expected = per_cell_ratios(
          user, type, regs,
          svm::SvmModel::fit_path(type, own, config, regs, dim, &path), windows);
      if (type == ClassifierType::kOcSvm) {
        EXPECT_GE(path.support_rows.front().size(),
                  static_cast<std::size_t>(0.999 * static_cast<double>(own.rows())))
            << cell;
        EXPECT_LE(path.support_rows.back().size(), own.rows() / 10) << cell;
      }
      ASSERT_EQ(path.support_rows.size(), regs.size()) << cell;
      ASSERT_EQ(entries.size(), regs.size()) << cell;
      for (std::size_t r = 0; r < regs.size(); ++r) {
        EXPECT_TRUE(std::is_sorted(path.support_rows[r].begin(),
                                   path.support_rows[r].end()));
        EXPECT_TRUE(entries[r].trainable) << cell << " nu=" << regs[r];
        EXPECT_EQ(entries[r].ratios.acc_self, expected[r].acc_self)
            << cell << " nu=" << regs[r];
        EXPECT_EQ(entries[r].ratios.acc_other, expected[r].acc_other)
            << cell << " nu=" << regs[r];
      }
    }
  }
}

TEST_F(ColumnScorer, UntrainableColumnsGetTheSentinel) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const MatrixByUser windows = windows_with_empty_user();
  const std::size_t dim = dataset.schema().dimension();
  const svm::KernelParams rbf{svm::KernelType::kRbf, 0.0, 0.0, 3};
  const auto expect_untrainable = [](const std::vector<ParamGridEntry>& column,
                                     std::size_t cells) {
    ASSERT_EQ(column.size(), cells);
    for (const auto& entry : column) {
      EXPECT_FALSE(entry.trainable);
      EXPECT_EQ(entry.ratios.acc_self, 0.0);
      EXPECT_EQ(entry.ratios.acc_other, 100.0);
    }
  };
  const std::vector<double> regs{0.5, 0.1};
  // No own windows: nothing to fit.
  expect_untrainable(
      column(kEmptyUser, ClassifierType::kOcSvm, rbf, regs, windows, dim),
      regs.size());
  // An out-of-range regularizer fails the fit_path, so the whole column.
  const std::vector<double> bad{0.5, 1.5};
  for (const ClassifierType type : {ClassifierType::kOcSvm, ClassifierType::kSvdd}) {
    expect_untrainable(
        column(dataset.user_ids().front(), type, rbf, bad, windows, dim),
        bad.size());
  }
}

// The pair scorer over several column users: each unordered user pair's
// dot block feeds both users' cells, so every user's grid must still be
// bitwise what per-cell profile_acceptance gives on the same fit_path models.
class PairScorer : public ::testing::Test {
 protected:
  static constexpr std::size_t kDim = 48;

  /// Windows of users whose row counts straddle the 64-query tile (70, 130,
  /// 5), plus a user with no windows.  Columns 0..2 are numeric, the rest
  /// binary, so the bitset plane scores them when it is on.
  static MatrixByUser synthetic_windows() {
    util::Rng rng{2017};
    MatrixByUser windows;
    const std::pair<const char*, std::size_t> users[] = {
        {"ann", 70}, {"bob", 130}, {"cid", 5}, {"dee", 0}};
    std::size_t habit = 3;
    for (const auto& [name, count] : users) {
      std::vector<util::SparseVector> rows;
      for (std::size_t i = 0; i < count; ++i) {
        std::set<std::size_t> cols;
        const std::size_t nnz = 4 + rng.uniform_index(6);
        while (cols.size() < nnz) {
          cols.insert(rng.bernoulli(0.3) ? 3 + rng.uniform_index(kDim - 3)
                                         : habit + rng.uniform_index(12));
        }
        std::vector<util::SparseVector::Entry> entries;
        for (const std::size_t col : cols) entries.push_back({col, 1.0});
        for (std::size_t col = 0; col < 3; ++col) {
          if (rng.bernoulli(0.7)) entries.push_back({col, rng.uniform(0.1, 3.0)});
        }
        rows.emplace_back(std::move(entries));
      }
      windows.emplace(name, std::make_shared<const util::FeatureMatrix>(
                                util::FeatureMatrix::from_rows(rows, kDim)));
      habit += 9;
    }
    return windows;
  }

  static std::vector<std::string> names(const MatrixByUser& windows) {
    std::vector<std::string> out;
    for (const auto& entry : windows) out.push_back(entry.first);
    return out;
  }

  /// The oracle: one fit_path per (user, kernel), every model scored on its
  /// own through profile_acceptance; a failed fit or no own windows gives
  /// the {0, 100} sentinel.
  static std::vector<ParamGridEntry> oracle_grid(
      const std::string& user, ClassifierType type,
      std::span<const svm::KernelParams> kernels, std::span<const double> regs,
      const MatrixByUser& windows, std::size_t dim) {
    std::vector<ParamGridEntry> grid;
    const util::FeatureMatrix& own = *windows.at(user);
    for (const auto& kernel : kernels) {
      std::vector<AcceptanceRatios> ratios;
      try {
        if (own.empty()) throw std::invalid_argument{"no windows"};
        svm::SvmConfig config;
        config.kernel = kernel;
        config.eps = kGridCellEps;
        ratios = per_cell_ratios(user, type, regs,
                                 svm::SvmModel::fit_path(type, own, config, regs, dim),
                                 windows);
      } catch (const std::invalid_argument&) {
        ratios.assign(regs.size(), {.acc_self = 0.0, .acc_other = 100.0});
      }
      for (std::size_t r = 0; r < regs.size(); ++r) {
        ParamGridEntry entry;
        entry.params = {type, kernel, regs[r]};
        entry.ratios = ratios[r];
        entry.trainable =
            !(ratios[r].acc_self == 0.0 && ratios[r].acc_other == 100.0);
        grid.push_back(entry);
      }
    }
    return grid;
  }

  static void expect_same_grid(const std::vector<ParamGridEntry>& got,
                               const std::vector<ParamGridEntry>& want,
                               const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].params, want[i].params) << what << " cell " << i;
      EXPECT_EQ(got[i].trainable, want[i].trainable) << what << " cell " << i;
      // Bitwise: EXPECT_EQ on doubles, not EXPECT_DOUBLE_EQ.
      EXPECT_EQ(got[i].ratios.acc_self, want[i].ratios.acc_self)
          << what << " cell " << i;
      EXPECT_EQ(got[i].ratios.acc_other, want[i].ratios.acc_other)
          << what << " cell " << i;
    }
  }

  static std::uint64_t pair_blocks() {
    return obs::Registry::global().counter("grid.pair_blocks").value();
  }
};

TEST_F(PairScorer, EveryUsersGridBitwiseEqualsPerCellOracle) {
  const MatrixByUser windows = synthetic_windows();
  const std::vector<std::string> users = names(windows);
  const auto kernels = paper_kernel_grid();
  const std::vector<double> regs{0.999, 0.5, 0.05, 0.001};
  util::ThreadPool one{1};
  util::ThreadPool four{4};
  for (const ClassifierType type : {ClassifierType::kOcSvm, ClassifierType::kSvdd}) {
    const std::string kind{to_string(type)};
    const auto width1 =
        score_param_grid(windows, users, type, kernels, regs, kDim, one);
    const auto width4 =
        score_param_grid(windows, users, type, kernels, regs, kDim, four);
    ASSERT_EQ(width1.size(), users.size());
    ASSERT_EQ(width4.size(), users.size());
    std::size_t trainable = 0;
    std::size_t mixed = 0;
    for (std::size_t u = 0; u < users.size(); ++u) {
      const std::string what = kind + "/" + users[u];
      const auto oracle = oracle_grid(users[u], type, kernels, regs, windows, kDim);
      expect_same_grid(width1[u], oracle, what + " pool 1");
      expect_same_grid(width4[u], oracle, what + " pool 4");
      // One column user: the param_grid_search case.
      expect_same_grid(
          score_param_grid(windows, {&users[u], 1}, type, kernels, regs, kDim,
                           four)
              .front(),
          oracle, what + " alone");
      for (const auto& entry : oracle) {
        trainable += entry.trainable ? 1 : 0;
        if (entry.trainable && entry.ratios.acc_other > 0.0 &&
            entry.ratios.acc_other < 100.0) {
          ++mixed;
        }
      }
    }
    // Cells that accept some other users' windows and reject others: the
    // transposed direction's counts decide them.
    EXPECT_GT(mixed, 0u) << kind;
    // The empty user's columns are untrainable; the others mostly are not.
    EXPECT_GT(trainable, kernels.size() * regs.size()) << kind;
  }
}

TEST_F(PairScorer, OneDotBlockPerUnorderedPair) {
  const MatrixByUser windows = synthetic_windows();
  const std::vector<std::string> users = names(windows);
  const std::size_t u = users.size();
  const auto kernels = paper_kernel_grid();
  const std::vector<double> regs{0.5, 0.1};
  util::ThreadPool four{4};
  std::uint64_t before = pair_blocks();
  (void)score_param_grid(windows, users, ClassifierType::kOcSvm, kernels, regs,
                         kDim, four);
  EXPECT_EQ(pair_blocks() - before, u * (u + 1) / 2);
  before = pair_blocks();
  (void)score_param_grid(windows, {&users[1], 1}, ClassifierType::kOcSvm,
                         kernels, regs, kDim, four);
  EXPECT_EQ(pair_blocks() - before, u);
  // One column user and one kernel: still one block per query user.
  before = pair_blocks();
  (void)score_param_grid(windows, {&users[0], 1}, ClassifierType::kSvdd,
                         {&kernels[2], 1}, regs, kDim, four);
  EXPECT_EQ(pair_blocks() - before, u);
}

TEST_F(PairScorer, OptimizeAllUsersMatchesPerUserGridAndOracle) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const std::size_t dim = dataset.schema().dimension();
  MatrixByUser windows;
  for (const auto& user : dataset.user_ids()) {
    windows.emplace(user, dataset.train_matrix(user, {60, 30}));
  }
  const auto kernels = paper_kernel_grid();
  const std::vector<double> regs{0.999, 0.5, 0.1, 0.01};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::ThreadPool local_pool{threads};
    for (const ClassifierType type :
         {ClassifierType::kOcSvm, ClassifierType::kSvdd}) {
      const auto chosen = optimize_all_users(dataset, {60, 30}, type, kernels,
                                             regs, local_pool);
      ASSERT_EQ(chosen.size(), dataset.user_count());
      for (std::size_t u = 0; u < chosen.size(); ++u) {
        const std::string& user = dataset.user_ids()[u];
        const std::string what = std::string{to_string(type)} + " user " +
                                 user + " pool " + std::to_string(threads);
        const auto grid = param_grid_search(dataset, user, {60, 30}, type,
                                            kernels, regs, local_pool);
        EXPECT_EQ(chosen[u], best_params(grid).params) << what;
        if (threads == 1) {
          const auto oracle = oracle_grid(user, type, kernels, regs, windows, dim);
          expect_same_grid(grid, oracle, what);
          EXPECT_EQ(chosen[u], best_params(oracle).params) << what;
        }
      }
    }
  }
}

// The pair scorer's lane reduction gives each lane the bits of
// decision_from_kernels' sum chain, whether the chain runs in one call or
// continues tile by tile.  Kernel values span 16 orders of magnitude, so a
// chain summed in another order ends with other bits.
TEST(GridReduction, LanesMatchDecisionFromKernelsBitwise) {
  util::Rng rng{99};
  constexpr std::size_t kRows = 150;
  constexpr std::size_t kLanes = 37;
  constexpr std::size_t kTile = 64;
  const double scales[] = {1e-8, 1.0, 1e8};
  std::vector<double> block(kRows * kLanes);
  for (double& value : block) {
    value = rng.uniform(-1.0, 1.0) * scales[rng.uniform_index(3)];
  }
  std::vector<std::uint32_t> rows;
  std::vector<double> coefficients;
  for (std::size_t i = 0; i < kRows; ++i) {
    if (rng.bernoulli(0.4)) {
      rows.push_back(static_cast<std::uint32_t>(i));
      coefficients.push_back(rng.uniform(0.01, 1.0));
    }
  }
  svm::ModelView view;
  view.scalar0 = 0.25;
  view.coefficients = coefficients;

  std::vector<double> whole(kLanes, 0.0);
  accumulate_support_rows(rows, coefficients, 0, rows.size(), 0, block.data(),
                          kLanes, whole.data());
  std::vector<double> tiled(kLanes, 0.0);
  std::size_t next = 0;
  for (std::size_t t0 = 0; t0 < kRows; t0 += kTile) {
    const std::size_t begin = next;
    while (next < rows.size() && rows[next] < t0 + kTile) ++next;
    accumulate_support_rows(rows, coefficients, begin, next, t0,
                            block.data() + t0 * kLanes, kLanes, tiled.data());
  }
  for (std::size_t q = 0; q < kLanes; ++q) {
    const double want = view.decision_from_kernels(
        [&](std::size_t i) { return block[rows[i] * kLanes + q]; }, 0.0);
    EXPECT_EQ(view.decision_from_sum(whole[q], 0.0), want) << "lane " << q;
    EXPECT_EQ(view.decision_from_sum(tiled[q], 0.0), want) << "lane " << q;
  }
}

TEST(TrainProfilesAndEvaluate, TestEvaluationHasSaneShape) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const features::WindowConfig window{60, 30};
  const std::vector<ProfileParams> params(dataset.user_count(), base_params());
  const auto profiles = train_profiles(dataset, window, params, pool());
  ASSERT_EQ(profiles.size(), dataset.user_count());

  const TestEvaluation evaluation =
      evaluate_on_test(dataset, window, profiles, pool());
  EXPECT_GT(evaluation.mean_ratios.acc_self, 30.0);
  EXPECT_LT(evaluation.mean_ratios.acc_other, evaluation.mean_ratios.acc_self);
  EXPECT_EQ(evaluation.confusion.users.size(), dataset.user_count());
  EXPECT_GT(evaluation.confusion.diagonal_mean(),
            evaluation.confusion.off_diagonal_mean());
}

TEST(TrainProfiles, RejectsSizeMismatch) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const std::vector<ProfileParams> params(dataset.user_count() + 1, base_params());
  EXPECT_THROW((void)train_profiles(dataset, {60, 30}, params, pool()),
               std::invalid_argument);
}

}  // namespace
}  // namespace wtp::core
