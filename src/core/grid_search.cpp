#include "core/grid_search.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

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
  obs::Counter& pair_blocks;

  static const GridMetrics& get() {
    static const GridMetrics metrics = [] {
      obs::Registry& r = obs::Registry::global();
      const obs::Label warm{"mode", "warm"};
      const obs::Label cold{"mode", "cold"};
      return GridMetrics{r.counter("grid.window_cells"),
                         r.counter("grid.columns"),
                         r.counter("grid.cells", {&warm, 1}),
                         r.counter("grid.cells", {&cold, 1}),
                         r.counter("grid.untrainable_cells"),
                         r.counter("grid.pair_blocks")};
    }();
    return metrics;
  }
};

/// Trains a profile and scores it against every user's training windows;
/// returns the paper's stage-1 ratios for one (user, config) cell.
AcceptanceRatios training_set_ratios(
    const std::string& user, const ProfileParams& params,
    const MatrixByUser& train_matrices, std::size_t dimension) {
  const obs::TraceSpan span{"grid.window_cell", "grid"};
  GridMetrics::get().window_cells.add(1);
  const auto& own_windows = *train_matrices.at(user);
  if (own_windows.empty()) return {.acc_self = 0.0, .acc_other = 100.0};
  try {
    const UserProfile profile =
        UserProfile::train(user, own_windows, dimension, params);
    return profile_acceptance(profile, train_matrices);
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
                                  const MatrixByUser& train_matrices,
                                  std::size_t dimension) {
  const obs::TraceSpan span{"grid.cell", "grid"};
  const GridMetrics& metrics = GridMetrics::get();
  metrics.cold_cells.add(1);
  const auto& own_windows = *train_matrices.at(user);
  if (own_windows.empty()) {
    metrics.untrainable_cells.add(1);
    return untrainable_ratios();
  }
  try {
    svm::SvmConfig config;
    config.regularizer = params.regularizer;
    config.kernel = params.kernel;
    config.eps = kGridCellEps;
    const UserProfile profile = UserProfile::from_model(
        user, params,
        svm::SvmModel::train(params.type, own_windows, config, dimension));
    return profile_acceptance(profile, train_matrices, kGridAcceptSlack);
  } catch (const std::invalid_argument&) {
    metrics.untrainable_cells.add(1);
    return untrainable_ratios();
  }
}

/// Query rows per dot block of the pair scorer: each per-thread block
/// buffer holds at most kColumnTile x l doubles (64 x 150 at paper shape,
/// ~75 KB).
constexpr std::size_t kColumnTile = 64;

constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

/// What scoring needs of one fit_path cell, kept once its model is dropped:
/// the support rows (training row indices, ascending: SV order), their
/// coefficients, and the decision scalars as a view without an SV block.
struct GridCell {
  std::vector<std::uint32_t> rows;
  std::vector<double> coefficients;
  svm::ModelView scalars;
};

/// One (user, kernel) column, aligned with the regularizers; empty when the
/// column is untrainable (no own windows, or a failed fit).
using GridColumn = std::vector<GridCell>;

GridColumn take_cells(const std::vector<svm::SvmModel>& models,
                      svm::PathStats& path) {
  GridColumn cells(models.size());
  for (std::size_t r = 0; r < models.size(); ++r) {
    cells[r].rows = std::move(path.support_rows[r]);
    cells[r].coefficients = models[r].coefficients();
    cells[r].scalars = svm::view_of(models[r]);
    cells[r].scalars.support_vectors = {};
    cells[r].scalars.coefficients = {};
  }
  return cells;
}

/// Phase 1: one fit_path sweep over `own` at kGridCellEps.  The models are
/// dropped on return, so the SV copies of every column never coexist.
GridColumn fit_column(const util::FeatureMatrix& own, ClassifierType type,
                      const svm::KernelParams& kernel,
                      std::span<const double> regularizers,
                      std::size_t dimension,
                      const std::shared_ptr<svm::GramCache>& gram) {
  const obs::TraceSpan span{"grid.column", "grid",
                            static_cast<std::uint64_t>(regularizers.size())};
  if (own.empty()) return {};
  try {
    svm::SvmConfig config;
    config.kernel = kernel;
    config.eps = kGridCellEps;
    config.gram_cache = gram;
    svm::PathStats path;
    return take_cells(
        svm::SvmModel::fit_path(type, own, config, regularizers, dimension, &path),
        path);
  } catch (const std::invalid_argument&) {
    return {};
  }
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

void accumulate_support_rows(std::span<const std::uint32_t> rows,
                             std::span<const double> coefficients,
                             std::size_t begin, std::size_t end,
                             std::size_t first, const double* block,
                             std::size_t lanes, double* __restrict acc) {
  for (std::size_t i = begin; i < end; ++i) {
    const double alpha = coefficients[i];
    const double* __restrict k = block + (rows[i] - first) * lanes;
    for (std::size_t q = 0; q < lanes; ++q) acc[q] += alpha * k[q];
  }
}

std::vector<std::vector<ParamGridEntry>> score_param_grid(
    const MatrixByUser& train_matrices, std::span<const std::string> column_users,
    ClassifierType type, std::span<const svm::KernelParams> kernels,
    std::span<const double> regularizers, std::size_t dimension,
    util::ThreadPool& pool) {
  const GridMetrics& metrics = GridMetrics::get();
  const std::size_t nk = kernels.size();
  const std::size_t nr = regularizers.size();
  const std::size_t columns_n = column_users.size();
  // Users in map order, the order the ratios average them in.
  std::vector<const util::FeatureMatrix*> matrices;
  std::vector<std::size_t> slot_of;
  for (const auto& entry : train_matrices) {
    matrices.push_back(entry.second.get());
    slot_of.push_back(kNoSlot);
  }
  std::vector<std::size_t> user_of(columns_n);
  for (std::size_t c = 0; c < columns_n; ++c) {
    const auto found = train_matrices.find(column_users[c]);
    if (found == train_matrices.end()) {
      throw std::out_of_range{"grid search: no windows for user '" +
                              column_users[c] + "'"};
    }
    user_of[c] = static_cast<std::size_t>(
        std::distance(train_matrices.begin(), found));
    slot_of[user_of[c]] = c;
  }
  // The kernel columns of one user transform the same Gram rows, so they
  // share one dot-row cache, dropped as soon as the user's last column is fit.
  std::vector<std::shared_ptr<svm::GramCache>> grams(columns_n);
  for (std::size_t c = 0; c < columns_n; ++c) {
    if (!matrices[user_of[c]]->empty()) {
      grams[c] = std::make_shared<svm::GramCache>(*matrices[user_of[c]]);
    }
  }
  const std::size_t users = matrices.size();
  metrics.warm_columns.add(columns_n * nk);
  metrics.warm_cells.add(columns_n * nk * nr);

  // Phase 1: fit.
  std::vector<GridColumn> columns(columns_n * nk);
  std::vector<std::atomic<std::size_t>> unfit(columns_n);
  for (auto& count : unfit) count.store(nk, std::memory_order_relaxed);
  util::parallel_for(pool, columns.size(), [&](std::size_t index) {
    const std::size_t c = index / nk;
    columns[index] = fit_column(*matrices[user_of[c]], type, kernels[index % nk],
                                regularizers, dimension, grams[c]);
    if (unfit[c].fetch_sub(1, std::memory_order_acq_rel) == 1) grams[c].reset();
  });

  // Phase 2: pair blocks.  (m, q): m is a column user; q != m is the
  // transposed direction's.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t a = 0; a < users; ++a) {
    for (std::size_t b = a; b < users; ++b) {
      if (slot_of[a] != kNoSlot) {
        pairs.emplace_back(a, b);
      } else if (slot_of[b] != kNoSlot) {
        pairs.emplace_back(b, a);
      }
    }
  }
  std::vector<std::size_t> counts(columns_n * nk * nr * users, 0);
  const auto count = [&](std::size_t slot, std::size_t k, std::size_t r,
                         std::size_t user) -> std::size_t& {
    return counts[((slot * nk + k) * nr + r) * users + user];
  };
  util::parallel_for(pool, pairs.size(), [&](std::size_t p) {
    const auto [m, q] = pairs[p];
    const obs::TraceSpan span{"grid.pair", "grid"};
    metrics.pair_blocks.add(1);
    const util::FeatureMatrix& own = *matrices[m];
    const util::FeatureMatrix& other = *matrices[q];
    const std::size_t l = own.rows();
    const std::size_t nq = other.rows();
    if (l == 0 || nq == 0) return;
    const std::size_t own_slot = slot_of[m];
    const std::size_t back_slot = q == m ? kNoSlot : slot_of[q];
    const svm::KernelMatrix matrix = svm::kernel_matrix(own);
    svm::KernelMatrix queries = svm::kernel_matrix(other);
    if (!queries.has_rows()) queries.csr = other.view();
    thread_local std::vector<double> dots;
    thread_local std::vector<double> values;
    thread_local std::vector<double> transposed;
    thread_local std::vector<double> acc;
    // The transposed direction's chains run across q's tiles: one per
    // (kernel, regularizer, row of m), with a cursor into each cell's rows.
    thread_local std::vector<double> back;
    thread_local std::vector<std::size_t> cursor;
    if (back_slot != kNoSlot) {
      back.assign(nk * nr * l, 0.0);
      cursor.assign(nk * nr, 0);
    }
    for (std::size_t q0 = 0; q0 < nq; q0 += kColumnTile) {
      const std::size_t tile = std::min(kColumnTile, nq - q0);
      dots.resize(tile * l);
      svm::dot_block(matrix, svm::KernelQueries::rows(queries, q0, tile),
                     std::span<double>{dots.data(), tile * l});
      for (std::size_t k = 0; k < nk; ++k) {
        const GridColumn& own_cells = columns[own_slot * nk + k];
        const GridColumn* back_cells =
            back_slot == kNoSlot ? nullptr : &columns[back_slot * nk + k];
        if (back_cells != nullptr && back_cells->empty()) back_cells = nullptr;
        if (own_cells.empty() && back_cells == nullptr) continue;
        // The fitted kernel (gamma "auto" resolved), the same in every column
        // of kernel k.
        const svm::KernelParams& kernel =
            (own_cells.empty() ? *back_cells : own_cells).front().scalars.kernel;
        values.assign(dots.begin(),
                      dots.begin() + static_cast<std::ptrdiff_t>(tile * l));
        for (std::size_t t = 0; t < tile; ++t) {
          svm::kernel_transform(kernel, own.sq_norms(), other.sq_norm(q0 + t),
                                std::span<double>{values.data() + t * l, l});
        }
        if (!own_cells.empty()) {
          // Queries from q: lanes are the tile's queries, so transpose.
          transposed.resize(l * tile);
          for (std::size_t t = 0; t < tile; ++t) {
            for (std::size_t i = 0; i < l; ++i) {
              transposed[i * tile + t] = values[t * l + i];
            }
          }
          for (std::size_t r = 0; r < nr; ++r) {
            const GridCell& cell = own_cells[r];
            acc.assign(tile, 0.0);
            accumulate_support_rows(cell.rows, cell.coefficients, 0,
                                    cell.rows.size(), 0, transposed.data(),
                                    tile, acc.data());
            std::size_t& accepted = count(own_slot, k, r, q);
            for (std::size_t t = 0; t < tile; ++t) {
              const double value =
                  cell.scalars.decision_from_sum(acc[t], other.sq_norm(q0 + t));
              if (value >= -kGridAcceptSlack) ++accepted;
            }
          }
        }
        if (back_cells != nullptr) {
          // Queries from m: lanes are m's rows; the tile holds q's support
          // rows in [q0, q0 + tile).
          for (std::size_t r = 0; r < nr; ++r) {
            const GridCell& cell = (*back_cells)[r];
            std::size_t& next = cursor[k * nr + r];
            const std::size_t begin = next;
            while (next < cell.rows.size() && cell.rows[next] < q0 + tile) ++next;
            accumulate_support_rows(cell.rows, cell.coefficients, begin, next,
                                    q0, values.data(), l,
                                    back.data() + (k * nr + r) * l);
          }
        }
      }
    }
    if (back_slot == kNoSlot) return;
    for (std::size_t k = 0; k < nk; ++k) {
      const GridColumn& back_cells = columns[back_slot * nk + k];
      for (std::size_t r = 0; r < back_cells.size(); ++r) {
        const double* sums = back.data() + (k * nr + r) * l;
        std::size_t& accepted = count(back_slot, k, r, m);
        for (std::size_t i = 0; i < l; ++i) {
          const double value =
              back_cells[r].scalars.decision_from_sum(sums[i], own.sq_norm(i));
          if (value >= -kGridAcceptSlack) ++accepted;
        }
      }
    }
  });

  // Phase 3: ratios.
  std::vector<std::vector<ParamGridEntry>> grids(
      columns_n, std::vector<ParamGridEntry>(nk * nr));
  for (std::size_t c = 0; c < columns_n; ++c) {
    for (std::size_t k = 0; k < nk; ++k) {
      for (std::size_t r = 0; r < nr; ++r) {
        ParamGridEntry& entry = grids[c][k * nr + r];
        entry.params.type = type;
        entry.params.kernel = kernels[k];
        entry.params.regularizer = regularizers[r];
        if (columns[c * nk + k].empty()) {
          entry.ratios = untrainable_ratios();
        } else {
          // Mirrors profile_acceptance: ratio = accepted/rows (0 for an
          // empty matrix) times 100, macro-averaged over the other users.
          double other_sum = 0.0;
          std::size_t other_count = 0;
          for (std::size_t v = 0; v < users; ++v) {
            const std::size_t rows = matrices[v]->rows();
            const double share =
                rows == 0 ? 0.0
                          : static_cast<double>(count(c, k, r, v)) /
                                static_cast<double>(rows);
            if (v == user_of[c]) {
              entry.ratios.acc_self = share * 100.0;
            } else {
              other_sum += share * 100.0;
              ++other_count;
            }
          }
          if (other_count > 0) {
            entry.ratios.acc_other = other_sum / static_cast<double>(other_count);
          }
        }
        entry.trainable = is_trainable(entry.ratios);
        if (!entry.trainable) metrics.untrainable_cells.add(1);
      }
    }
  }
  return grids;
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
    const MatrixByUser train_matrices = all_train_matrices(dataset, window, pool);
    std::vector<AcceptanceRatios> per_user(users.size());
    util::parallel_for(pool, users.size(), [&](std::size_t u) {
      per_user[u] = training_set_ratios(users[u], base_params, train_matrices,
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
  const MatrixByUser train_matrices = all_train_matrices(dataset, window, pool);
  if (mode == GridSearchMode::kWarmPath) {
    return std::move(score_param_grid(train_matrices, {&user, 1}, type, kernels,
                                      regularizers, dataset.schema().dimension(),
                                      pool)
                         .front());
  }
  std::vector<ParamGridEntry> entries(kernels.size() * regularizers.size());
  util::parallel_for(pool, entries.size(), [&](std::size_t index) {
    const std::size_t k = index / regularizers.size();
    const std::size_t r = index % regularizers.size();
    ParamGridEntry& entry = entries[index];
    entry.params.type = type;
    entry.params.kernel = kernels[k];
    entry.params.regularizer = regularizers[r];
    entry.ratios = grid_cell_ratios(user, entry.params, train_matrices,
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
  const MatrixByUser train_matrices = all_train_matrices(dataset, window, pool);
  const auto& users = dataset.user_ids();
  std::vector<std::vector<ParamGridEntry>> grids;
  if (mode == GridSearchMode::kWarmPath) {
    // Results land in fixed slots, so the selection below is independent
    // of scheduling and pool size.
    grids = score_param_grid(train_matrices, users, type, kernels, regularizers,
                             dataset.schema().dimension(), pool);
  } else {
    const std::size_t grid_size = kernels.size() * regularizers.size();
    grids.assign(users.size(), std::vector<ParamGridEntry>(grid_size));
    util::parallel_for(pool, users.size() * grid_size, [&](std::size_t index) {
      const std::size_t u = index / grid_size;
      const std::size_t g = index % grid_size;
      const std::size_t k = g / regularizers.size();
      const std::size_t r = g % regularizers.size();
      ParamGridEntry& entry = grids[u][g];
      entry.params.type = type;
      entry.params.kernel = kernels[k];
      entry.params.regularizer = regularizers[r];
      entry.ratios = grid_cell_ratios(users[u], entry.params, train_matrices,
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
  MatrixByUser test_matrices;
  for (std::size_t u = 0; u < users.size(); ++u) {
    test_matrices.emplace(users[u], std::move(per_user[u]));
  }
  TestEvaluation evaluation;
  evaluation.mean_ratios = mean_acceptance(profiles, test_matrices);
  evaluation.confusion = compute_confusion(profiles, test_matrices);
  return evaluation;
}

}  // namespace wtp::core
