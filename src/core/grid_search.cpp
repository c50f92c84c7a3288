#include "core/grid_search.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "obs/registry.h"
#include "obs/trace.h"

namespace wtp::core {

std::vector<features::WindowConfig> paper_window_grid() {
  // Column headers of Tab. II / Tab. IV: (D, S) pairs.
  return {{60, 6}, {60, 30}, {300, 60}, {600, 60}, {1800, 300}, {3600, 300}};
}

std::vector<double> paper_regularizer_grid() {
  return {0.999, 0.99, 0.95, 0.9, 0.8, 0.7, 0.6, 0.5,
          0.4,   0.3,  0.2,  0.1, 0.05, 0.01, 0.001};
}

std::vector<svm::KernelParams> paper_kernel_grid(double gamma) {
  std::vector<svm::KernelParams> kernels;
  kernels.push_back({svm::KernelType::kLinear, gamma, 0.0, 3});
  kernels.push_back({svm::KernelType::kPolynomial, gamma, 1.0, 3});
  kernels.push_back({svm::KernelType::kRbf, gamma, 0.0, 3});
  kernels.push_back({svm::KernelType::kSigmoid, gamma, 0.0, 3});
  return kernels;
}

namespace {

/// Grid-search counters on the global registry.  Handles are resolved once
/// (the registry keeps them stable), so per-cell cost is a relaxed add.
struct GridMetrics {
  obs::Counter& window_cells;
  obs::Counter& warm_columns;
  obs::Counter& warm_cells;
  obs::Counter& cold_cells;
  obs::Counter& untrainable_cells;

  static const GridMetrics& get() {
    static const GridMetrics metrics = [] {
      obs::Registry& r = obs::Registry::global();
      const obs::Label warm{"mode", "warm"};
      const obs::Label cold{"mode", "cold"};
      return GridMetrics{r.counter("grid.window_cells"),
                         r.counter("grid.columns"),
                         r.counter("grid.cells", {&warm, 1}),
                         r.counter("grid.cells", {&cold, 1}),
                         r.counter("grid.untrainable_cells")};
    }();
    return metrics;
  }
};

/// Trains a profile and scores it against every user's training windows;
/// returns the paper's stage-1 ratios for one (user, config) cell.
AcceptanceRatios training_set_ratios(
    const std::string& user, const ProfileParams& params,
    const MatrixByUser& train_windows, std::size_t dimension) {
  const obs::TraceSpan span{"grid.window_cell", "grid"};
  GridMetrics::get().window_cells.add(1);
  const auto& own_windows = *train_windows.at(user);
  if (own_windows.empty()) return {.acc_self = 0.0, .acc_other = 100.0};
  try {
    const UserProfile profile =
        UserProfile::train(user, own_windows, dimension, params);
    return profile_acceptance(profile, train_windows);
  } catch (const std::invalid_argument&) {
    // Infeasible configuration (e.g. SVDD with C*l < 1 after clamping, or a
    // degenerate training set): maximally bad score, keeps the sweep going.
    return {.acc_self = 0.0, .acc_other = 100.0};
  }
}

/// The {0, 100} sentinel: maximally bad ratios marking a cell whose
/// training failed (infeasible or degenerate configuration).
constexpr AcceptanceRatios untrainable_ratios() {
  return {.acc_self = 0.0, .acc_other = 100.0};
}

bool is_trainable(const AcceptanceRatios& ratios) {
  return !(ratios.acc_self == 0.0 && ratios.acc_other == 100.0);
}

/// One stage-2 cell trained from scratch (the cold reference): same solver
/// tolerance and acceptance slack as the warm path, so the two modes differ
/// only in how the solution is reached.
AcceptanceRatios grid_cell_ratios(const std::string& user,
                                  const ProfileParams& params,
                                  const MatrixByUser& train_windows,
                                  std::size_t dimension) {
  const obs::TraceSpan span{"grid.cell", "grid"};
  const GridMetrics& metrics = GridMetrics::get();
  metrics.cold_cells.add(1);
  const auto& own_windows = *train_windows.at(user);
  if (own_windows.empty()) {
    metrics.untrainable_cells.add(1);
    return untrainable_ratios();
  }
  try {
    const auto train = [&]() -> svm::AnySvmModel {
      if (params.type == ClassifierType::kOcSvm) {
        svm::OneClassSvmConfig config;
        config.nu = params.regularizer;
        config.kernel = params.kernel;
        config.eps = kGridCellEps;
        return svm::OneClassSvmModel::train(own_windows, config, dimension);
      }
      svm::SvddConfig config;
      config.c = params.regularizer;
      config.kernel = params.kernel;
      config.eps = kGridCellEps;
      return svm::SvddModel::train(own_windows, config, dimension);
    };
    const UserProfile profile = UserProfile::from_model(user, params, train());
    return profile_acceptance(profile, train_windows, kGridAcceptSlack);
  } catch (const std::invalid_argument&) {
    metrics.untrainable_cells.add(1);
    return untrainable_ratios();
  }
}

/// Query rows per kernel_block in column_acceptance: the per-thread block is
/// kColumnTile x l doubles (64 x 150 at paper shape, ~75 KB).
constexpr std::size_t kColumnTile = 64;

/// The column scorer behind regularizer_path_entries: ratios of every model
/// of one fit_path column (`path` is that sweep's PathStats).  Each query
/// tile gets one kernel_block over all training rows; cell r reduces its
/// support rows out of it, in SV order, through its view's
/// decision_from_kernels — the values decision_values would compute from a
/// block over the model's SV copy, hence the same bits.  view_of builds no
/// bitset here: fit_path gives each model's SV block one in the training
/// matrix's layout when it makes the model, whenever that matrix has one.
template <class Model>
std::vector<AcceptanceRatios> column_acceptance(
    const std::string& user, std::span<const Model> models,
    const svm::PathStats& path, const MatrixByUser& train_windows,
    double slack) {
  const std::size_t cells = models.size();
  std::vector<AcceptanceRatios> ratios(cells);
  if (cells == 0) return ratios;
  const obs::TraceSpan span{"grid.column_score", "grid",
                            static_cast<std::uint64_t>(cells)};
  const util::FeatureMatrix& own_windows = *train_windows.at(user);
  const svm::KernelMatrix own = svm::kernel_matrix(own_windows);
  const svm::KernelParams& kernel = models.front().kernel();
  const std::size_t l = own_windows.rows();
  std::vector<svm::ModelView> views;
  views.reserve(cells);
  for (const Model& model : models) views.push_back(svm::view_of(model));
  std::vector<std::size_t> accepted(cells);
  std::vector<double> other_sum(cells, 0.0);
  std::size_t other_count = 0;
  thread_local std::vector<double> block;
  // Mirrors profile_acceptance: users in map order, ratio = accepted/rows
  // (0 for an empty matrix) times 100, macro-averaged over the others.
  for (const auto& [name, matrix] : train_windows) {
    const std::size_t nq = matrix->rows();
    const svm::KernelMatrix queries = svm::kernel_matrix(*matrix);
    std::fill(accepted.begin(), accepted.end(), std::size_t{0});
    for (std::size_t q0 = 0; q0 < nq; q0 += kColumnTile) {
      const std::size_t tile = std::min(kColumnTile, nq - q0);
      if (block.size() < tile * l) block.resize(tile * l);
      svm::kernel_block(kernel, own, svm::KernelQueries::rows(queries, q0, tile),
                        std::span<double>{block.data(), tile * l});
      for (std::size_t r = 0; r < cells; ++r) {
        const std::uint32_t* rows = path.support_rows[r].data();
        for (std::size_t t = 0; t < tile; ++t) {
          const double* k = block.data() + t * l;
          const double value = views[r].decision_from_kernels(
              [k, rows](std::size_t i) { return k[rows[i]]; },
              matrix->sq_norm(q0 + t));
          if (value >= -slack) ++accepted[r];
        }
      }
    }
    for (std::size_t r = 0; r < cells; ++r) {
      const double share =
          nq == 0 ? 0.0
                  : static_cast<double>(accepted[r]) / static_cast<double>(nq);
      if (name == user) {
        ratios[r].acc_self = share * 100.0;
      } else {
        other_sum[r] += share * 100.0;
      }
    }
    if (name != user) ++other_count;
  }
  if (other_count > 0) {
    for (std::size_t r = 0; r < cells; ++r) {
      ratios[r].acc_other = other_sum[r] / static_cast<double>(other_count);
    }
  }
  return ratios;
}

/// Each (window, user) pair is windowed into a CSR matrix exactly once: the
/// dataset's matrix cache hands out shared matrices, so every grid point of
/// a kernel x nu sweep at this window configuration reuses the same rows.
MatrixByUser all_train_matrices(const ProfilingDataset& dataset,
                                const features::WindowConfig& window,
                                util::ThreadPool& pool) {
  const auto& users = dataset.user_ids();
  std::vector<std::shared_ptr<const util::FeatureMatrix>> per_user(users.size());
  util::parallel_for(pool, users.size(), [&](std::size_t u) {
    per_user[u] = dataset.train_matrix(users[u], window);
  });
  MatrixByUser matrices;
  for (std::size_t u = 0; u < users.size(); ++u) {
    matrices.emplace(users[u], std::move(per_user[u]));
  }
  return matrices;
}

}  // namespace

std::vector<ParamGridEntry> regularizer_path_entries(
    const std::string& user, ClassifierType type,
    const svm::KernelParams& kernel, std::span<const double> regularizers,
    const MatrixByUser& train_windows, std::size_t dimension,
    const std::shared_ptr<svm::GramCache>& gram) {
  const obs::TraceSpan span{"grid.column", "grid",
                            static_cast<std::uint64_t>(regularizers.size())};
  const GridMetrics& metrics = GridMetrics::get();
  metrics.warm_columns.add(1);
  metrics.warm_cells.add(regularizers.size());
  std::vector<ParamGridEntry> entries(regularizers.size());
  for (std::size_t r = 0; r < regularizers.size(); ++r) {
    entries[r].params.type = type;
    entries[r].params.kernel = kernel;
    entries[r].params.regularizer = regularizers[r];
  }
  const auto mark_untrainable = [&entries] {
    for (auto& entry : entries) {
      entry.ratios = untrainable_ratios();
      entry.trainable = false;
    }
  };
  const auto& own_windows = *train_windows.at(user);
  if (own_windows.empty()) {
    mark_untrainable();
    return entries;
  }
  try {
    svm::PathStats path;
    std::vector<AcceptanceRatios> ratios;
    if (type == ClassifierType::kOcSvm) {
      svm::OneClassSvmConfig config;
      config.kernel = kernel;
      config.eps = kGridCellEps;
      config.gram_cache = gram;
      const auto models = svm::OneClassSvmModel::fit_path(
          own_windows, config, regularizers, dimension, &path);
      ratios = column_acceptance(user, std::span{models}, path,
                                 train_windows, kGridAcceptSlack);
    } else {
      svm::SvddConfig config;
      config.kernel = kernel;
      config.eps = kGridCellEps;
      config.gram_cache = gram;
      const auto models = svm::SvddModel::fit_path(own_windows, config,
                                                   regularizers, dimension, &path);
      ratios = column_acceptance(user, std::span{models}, path,
                                 train_windows, kGridAcceptSlack);
    }
    for (std::size_t r = 0; r < entries.size(); ++r) {
      entries[r].ratios = ratios[r];
      entries[r].trainable = is_trainable(ratios[r]);
    }
  } catch (const std::invalid_argument&) {
    mark_untrainable();
  }
  for (const auto& entry : entries) {
    if (!entry.trainable) metrics.untrainable_cells.add(1);
  }
  return entries;
}

std::vector<WindowGridEntry> window_grid_search(
    const ProfilingDataset& dataset,
    std::span<const features::WindowConfig> window_grid,
    const ProfileParams& base_params, util::ThreadPool& pool) {
  std::vector<WindowGridEntry> entries;
  entries.reserve(window_grid.size());
  const auto& users = dataset.user_ids();
  if (users.empty()) throw std::invalid_argument{"window_grid_search: no users"};
  for (const auto& window : window_grid) {
    const MatrixByUser train_windows = all_train_matrices(dataset, window, pool);
    std::vector<AcceptanceRatios> per_user(users.size());
    util::parallel_for(pool, users.size(), [&](std::size_t u) {
      per_user[u] = training_set_ratios(users[u], base_params, train_windows,
                                        dataset.schema().dimension());
    });
    WindowGridEntry entry;
    entry.window = window;
    for (const auto& ratios : per_user) {
      entry.ratios.acc_self += ratios.acc_self;
      entry.ratios.acc_other += ratios.acc_other;
    }
    entry.ratios.acc_self /= static_cast<double>(users.size());
    entry.ratios.acc_other /= static_cast<double>(users.size());
    entries.push_back(entry);
  }
  return entries;
}

const WindowGridEntry& best_by_acc_self(std::span<const WindowGridEntry> entries) {
  if (entries.empty()) throw std::invalid_argument{"best_by_acc_self: empty"};
  return *std::max_element(entries.begin(), entries.end(),
                           [](const auto& a, const auto& b) {
                             return a.ratios.acc_self < b.ratios.acc_self;
                           });
}

const WindowGridEntry& best_by_acc(std::span<const WindowGridEntry> entries) {
  if (entries.empty()) throw std::invalid_argument{"best_by_acc: empty"};
  return *std::max_element(entries.begin(), entries.end(),
                           [](const auto& a, const auto& b) {
                             return a.ratios.acc() < b.ratios.acc();
                           });
}

std::vector<ParamGridEntry> param_grid_search(
    const ProfilingDataset& dataset, const std::string& user,
    const features::WindowConfig& window, ClassifierType type,
    std::span<const svm::KernelParams> kernels,
    std::span<const double> regularizers, util::ThreadPool& pool,
    GridSearchMode mode) {
  const MatrixByUser train_windows = all_train_matrices(dataset, window, pool);
  std::vector<ParamGridEntry> entries(kernels.size() * regularizers.size());
  if (mode == GridSearchMode::kWarmPath) {
    // One task per kernel: the regularizer column is a single warm path.
    // All columns transform the same Gram rows, so they share one dot cache.
    const auto& own_windows = *train_windows.at(user);
    const auto gram = own_windows.empty()
                          ? nullptr
                          : std::make_shared<svm::GramCache>(own_windows);
    util::parallel_for(pool, kernels.size(), [&](std::size_t k) {
      auto column = regularizer_path_entries(user, type, kernels[k],
                                             regularizers, train_windows,
                                             dataset.schema().dimension(), gram);
      std::move(column.begin(), column.end(),
                entries.begin() +
                    static_cast<std::ptrdiff_t>(k * regularizers.size()));
    });
    return entries;
  }
  util::parallel_for(pool, entries.size(), [&](std::size_t index) {
    const std::size_t k = index / regularizers.size();
    const std::size_t r = index % regularizers.size();
    ParamGridEntry& entry = entries[index];
    entry.params.type = type;
    entry.params.kernel = kernels[k];
    entry.params.regularizer = regularizers[r];
    entry.ratios = grid_cell_ratios(user, entry.params, train_windows,
                                    dataset.schema().dimension());
    entry.trainable = is_trainable(entry.ratios);
  });
  return entries;
}

const ParamGridEntry& best_params(std::span<const ParamGridEntry> entries) {
  const ParamGridEntry* best = nullptr;
  for (const auto& entry : entries) {
    if (!entry.trainable) continue;
    if (best == nullptr || entry.ratios.acc() > best->ratios.acc()) best = &entry;
  }
  if (best == nullptr) {
    throw std::runtime_error{"best_params: no trainable grid entry"};
  }
  return *best;
}

std::vector<ProfileParams> optimize_all_users(
    const ProfilingDataset& dataset, const features::WindowConfig& window,
    ClassifierType type, std::span<const svm::KernelParams> kernels,
    std::span<const double> regularizers, util::ThreadPool& pool,
    GridSearchMode mode) {
  const MatrixByUser train_windows = all_train_matrices(dataset, window, pool);
  const auto& users = dataset.user_ids();
  const std::size_t grid_size = kernels.size() * regularizers.size();
  std::vector<std::vector<ParamGridEntry>> grids(
      users.size(), std::vector<ParamGridEntry>(grid_size));
  if (mode == GridSearchMode::kWarmPath) {
    // One task per (user, kernel); results land in fixed slots, so the
    // selection below is independent of scheduling and pool size.  Kernel
    // columns of the same user share that user's dot-row cache.
    std::vector<std::shared_ptr<svm::GramCache>> grams(users.size());
    for (std::size_t u = 0; u < users.size(); ++u) {
      const auto& own_windows = *train_windows.at(users[u]);
      if (!own_windows.empty()) {
        grams[u] = std::make_shared<svm::GramCache>(own_windows);
      }
    }
    util::parallel_for(pool, users.size() * kernels.size(), [&](std::size_t index) {
      const std::size_t u = index / kernels.size();
      const std::size_t k = index % kernels.size();
      auto column = regularizer_path_entries(users[u], type, kernels[k],
                                             regularizers, train_windows,
                                             dataset.schema().dimension(),
                                             grams[u]);
      std::move(column.begin(), column.end(),
                grids[u].begin() +
                    static_cast<std::ptrdiff_t>(k * regularizers.size()));
    });
  } else {
    util::parallel_for(pool, users.size() * grid_size, [&](std::size_t index) {
      const std::size_t u = index / grid_size;
      const std::size_t g = index % grid_size;
      const std::size_t k = g / regularizers.size();
      const std::size_t r = g % regularizers.size();
      ParamGridEntry& entry = grids[u][g];
      entry.params.type = type;
      entry.params.kernel = kernels[k];
      entry.params.regularizer = regularizers[r];
      entry.ratios = grid_cell_ratios(users[u], entry.params, train_windows,
                                      dataset.schema().dimension());
      entry.trainable = is_trainable(entry.ratios);
    });
  }
  std::vector<ProfileParams> chosen;
  chosen.reserve(users.size());
  for (const auto& grid : grids) chosen.push_back(best_params(grid).params);
  return chosen;
}

std::vector<UserProfile> train_profiles(const ProfilingDataset& dataset,
                                        const features::WindowConfig& window,
                                        std::span<const ProfileParams> params,
                                        util::ThreadPool& pool) {
  const auto& users = dataset.user_ids();
  if (params.size() != users.size()) {
    throw std::invalid_argument{"train_profiles: params/users size mismatch"};
  }
  std::vector<std::optional<UserProfile>> slots(users.size());
  std::mutex error_mutex;
  std::string first_error;
  util::parallel_for(pool, users.size(), [&](std::size_t u) {
    try {
      const auto windows = dataset.train_matrix(users[u], window);
      slots[u] = UserProfile::train(users[u], *windows,
                                    dataset.schema().dimension(), params[u]);
    } catch (const std::exception& e) {
      const std::lock_guard lock{error_mutex};
      if (first_error.empty()) first_error = users[u] + ": " + e.what();
    }
  });
  if (!first_error.empty()) {
    throw std::runtime_error{"train_profiles: " + first_error};
  }
  std::vector<UserProfile> profiles;
  profiles.reserve(users.size());
  for (auto& slot : slots) profiles.push_back(std::move(*slot));
  return profiles;
}

TestEvaluation evaluate_on_test(const ProfilingDataset& dataset,
                                const features::WindowConfig& window,
                                std::span<const UserProfile> profiles,
                                util::ThreadPool& pool) {
  const auto& users = dataset.user_ids();
  std::vector<std::shared_ptr<const util::FeatureMatrix>> per_user(users.size());
  util::parallel_for(pool, users.size(), [&](std::size_t u) {
    per_user[u] = dataset.test_matrix(users[u], window);
  });
  MatrixByUser test_windows;
  for (std::size_t u = 0; u < users.size(); ++u) {
    test_windows.emplace(users[u], std::move(per_user[u]));
  }
  TestEvaluation evaluation;
  evaluation.mean_ratios = mean_acceptance(profiles, test_windows);
  evaluation.confusion = compute_confusion(profiles, test_windows);
  return evaluation;
}

}  // namespace wtp::core
