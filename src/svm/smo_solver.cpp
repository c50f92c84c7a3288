#include "svm/smo_solver.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "obs/registry.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace wtp::svm {

namespace {

constexpr double kTau = 1e-12;  // curvature floor for non-PSD kernels

/// Publishes one solve's stats to the global registry, labeled by kernel.
/// Handles are resolved once per kernel type and cached (the registry keeps
/// them stable for process lifetime), so per-solve cost is a few relaxed
/// atomic adds plus one striped histogram record.
void publish_solver_stats(KernelType kernel, const SolverStats& stats,
                          double elapsed_ns) {
  struct Handles {
    obs::Counter* solves;
    obs::Counter* iterations;
    obs::Counter* shrink_events;
    obs::Counter* shrunk_variables;
    obs::Counter* reconstructions;
    obs::Counter* cache_hits;
    obs::Counter* cache_misses;
    obs::Timer* solve_time;
  };
  static constexpr std::size_t kKernelCount = 4;
  static std::array<Handles, kKernelCount> handles = [] {
    std::array<Handles, kKernelCount> out;
    obs::Registry& registry = obs::Registry::global();
    for (std::size_t k = 0; k < kKernelCount; ++k) {
      const obs::Label label{
          "kernel", std::string{to_string(static_cast<KernelType>(k))}};
      const std::span<const obs::Label> labels{&label, 1};
      out[k] = {&registry.counter("solver.solves", labels),
                &registry.counter("solver.iterations", labels),
                &registry.counter("solver.shrink_events", labels),
                &registry.counter("solver.shrunk_variables", labels),
                &registry.counter("solver.reconstructions", labels),
                &registry.counter("solver.cache_hits", labels),
                &registry.counter("solver.cache_misses", labels),
                &registry.timer("solver.solve", labels)};
    }
    return out;
  }();
  const Handles& h = handles[static_cast<std::size_t>(kernel) % kKernelCount];
  h.solves->add(1);
  h.iterations->add(stats.iterations);
  if (stats.shrink_events > 0) h.shrink_events->add(stats.shrink_events);
  if (stats.shrunk_variables > 0) h.shrunk_variables->add(stats.shrunk_variables);
  if (stats.reconstructions > 0) h.reconstructions->add(stats.reconstructions);
  if (stats.cache_hits > 0) h.cache_hits->add(stats.cache_hits);
  if (stats.cache_misses > 0) h.cache_misses->add(stats.cache_misses);
  h.solve_time->record_ns(elapsed_ns);
}

}  // namespace

QMatrix::QMatrix(const util::FeatureMatrix& data, KernelParams params,
                 double scale, std::size_t cache_bytes)
    : QMatrix{data, params, scale, cache_bytes, nullptr} {}

QMatrix::QMatrix(const util::FeatureMatrix& data, KernelParams params,
                 double scale, std::size_t cache_bytes,
                 std::shared_ptr<GramCache> gram)
    : data_{&data},
      params_{params},
      scale_{scale},
      cache_{std::max<std::size_t>(1, data.rows()), cache_bytes},
      gram_{std::move(gram)} {
  if (data.empty()) throw std::invalid_argument{"QMatrix: empty training set"};
  if (gram_ != nullptr && &gram_->data() != &data) {
    throw std::invalid_argument{"QMatrix: gram cache built over another matrix"};
  }
  const std::size_t l = data.rows();
  kernel_diag_.resize(l);
  diag_.resize(l);
  row_scratch_.resize(l);
  for (std::size_t i = 0; i < l; ++i) {
    kernel_diag_[i] = kernel_self(params_, data.sq_norm(i));
    diag_[i] = scale_ * kernel_diag_[i];
  }
}

std::span<const float> QMatrix::row(std::size_t i) {
  return cache_.get(i, [this](std::size_t r, std::span<float> out) {
    if (gram_ != nullptr) {
      gram_->row(r, row_scratch_);
      kernel_transform(params_, data_->sq_norms(), data_->sq_norm(r),
                       row_scratch_);
    } else {
      const KernelMatrix matrix = kernel_matrix(*data_);
      kernel_block(params_, matrix, KernelQueries::rows(matrix, r, 1),
                   row_scratch_);
    }
    for (std::size_t j = 0; j < row_scratch_.size(); ++j) {
      out[j] = static_cast<float>(scale_ * row_scratch_[j]);
    }
  });
}

namespace {

/// Everything one solve needs; split out so the shrinking machinery
/// (selection, shrink pass, exact reconstruction) reads as small methods
/// over shared state instead of one 200-line loop body.
class SmoWorkspace {
 public:
  SmoWorkspace(QMatrix& q, std::span<const double> p, double upper_bound,
               const SolverConfig& config, SolverResult& result)
      : q_{q},
        p_{p},
        upper_{upper_bound},
        bound_eps_{upper_bound * 1e-12},
        eps_{config.eps},
        shrinking_{config.shrinking},
        alpha_{result.alpha},
        grad_{result.gradient},
        g_bar_{result.g_bar},
        stats_{result.stats} {
    const std::size_t l = q.size();
    active_.resize(l);
    std::iota(active_.begin(), active_.end(), std::size_t{0});
    if (shrinking_) g_bar_.assign(l, 0.0);
  }

  [[nodiscard]] bool is_upper(std::size_t i) const noexcept {
    return alpha_[i] >= upper_ - bound_eps_;
  }
  [[nodiscard]] bool is_lower(std::size_t i) const noexcept {
    return alpha_[i] <= bound_eps_;
  }
  [[nodiscard]] bool is_free(std::size_t i) const noexcept {
    return !is_upper(i) && !is_lower(i);
  }
  [[nodiscard]] std::size_t size() const noexcept { return p_.size(); }
  [[nodiscard]] std::size_t active_size() const noexcept {
    return active_.size();
  }

  /// Initial gradient G = Q alpha + p and (with shrinking) the bounded-part
  /// decomposition G_bar_i = U * sum_{j upper} Q_ij used for exact
  /// reconstruction later.
  void init_gradient() {
    grad_.assign(p_.begin(), p_.end());
    for (std::size_t j = 0; j < size(); ++j) {
      if (alpha_[j] <= 0.0) continue;
      const auto qj = q_.row(j);
      for (std::size_t t = 0; t < size(); ++t) {
        grad_[t] += alpha_[j] * static_cast<double>(qj[t]);
      }
      if (shrinking_ && is_upper(j)) {
        for (std::size_t t = 0; t < size(); ++t) {
          g_bar_[t] += upper_ * static_cast<double>(qj[t]);
        }
      }
    }
  }

  /// Gradient seeded from a previous solution of the same QMatrix:
  ///   G = G_seed + sum_{j: alpha_j changed} (alpha_j - seed_alpha_j) Q_j
  /// and, with shrinking, G_bar rescaled from the seed's bound (U_new/U_old
  /// maps U_old * sum_{j upper_old} onto the new bound) plus one row update
  /// per variable whose at-upper status changed.  On a path every touched
  /// row is cache-hot, so the cost is O(changed rows), not O(support rows).
  void init_gradient_from_seed(const WarmSeed& seed) {
    grad_.assign(seed.gradient.begin(), seed.gradient.end());
    for (std::size_t j = 0; j < size(); ++j) {
      const double delta = alpha_[j] - seed.alpha[j];
      if (delta == 0.0) continue;
      const auto qj = q_.row(j);
      for (std::size_t t = 0; t < size(); ++t) {
        grad_[t] += delta * static_cast<double>(qj[t]);
      }
    }
    if (!shrinking_) return;
    const double old_upper = seed.upper_bound;
    const double old_bound_eps = old_upper * 1e-12;
    const bool have_seed_bar = !seed.g_bar.empty();
    if (have_seed_bar) {
      const double ratio = upper_ / old_upper;
      for (std::size_t t = 0; t < size(); ++t) {
        g_bar_[t] = ratio * seed.g_bar[t];
      }
    }
    for (std::size_t j = 0; j < size(); ++j) {
      const bool was_upper =
          have_seed_bar && seed.alpha[j] >= old_upper - old_bound_eps;
      const bool now_upper = is_upper(j);
      if (was_upper == now_upper) continue;
      const double sign = now_upper ? upper_ : -upper_;
      const auto qj = q_.row(j);
      for (std::size_t t = 0; t < size(); ++t) {
        g_bar_[t] += sign * static_cast<double>(qj[t]);
      }
    }
  }

  struct Selection {
    std::ptrdiff_t i = -1;
    std::ptrdiff_t j = -1;
    double gap = 0.0;  ///< m(alpha) - M(alpha) over the active set
  };

  /// LibSVM WSS2 over the active set: i maximizes -G among non-upper
  /// variables, j maximizes the second-order gain among down-candidates.
  [[nodiscard]] Selection select_working_set() {
    Selection sel;
    double g_max = -std::numeric_limits<double>::infinity();
    for (const std::size_t t : active_) {
      if (!is_upper(t) && -grad_[t] > g_max) {
        g_max = -grad_[t];
        sel.i = static_cast<std::ptrdiff_t>(t);
      }
    }
    double g_min = std::numeric_limits<double>::infinity();
    for (const std::size_t t : active_) {
      if (!is_lower(t)) g_min = std::min(g_min, -grad_[t]);
    }
    sel.gap = g_max - g_min;
    if (sel.i < 0 || !(sel.gap >= eps_)) return sel;

    const auto i = static_cast<std::size_t>(sel.i);
    const auto qi = q_.row(i);
    double best_gain = -std::numeric_limits<double>::infinity();
    for (const std::size_t t : active_) {
      if (is_lower(t)) continue;
      const double b = g_max + grad_[t];  // = (-G_i) - (-G_t)
      if (b <= 0.0) continue;
      double a = q_.diag(i) + q_.diag(t) - 2.0 * static_cast<double>(qi[t]);
      if (a <= 0.0) a = kTau;
      const double gain = (b * b) / a;
      if (gain > best_gain) {
        best_gain = gain;
        sel.j = static_cast<std::ptrdiff_t>(t);
      }
    }
    return sel;
  }

  /// Analytic two-variable update on the selected pair; returns false on
  /// the degenerate no-movement corner.
  [[nodiscard]] bool update_pair(std::size_t i, std::size_t j) {
    const auto qi = q_.row(i);
    const auto qj = q_.row(j);
    double a = q_.diag(i) + q_.diag(j) - 2.0 * static_cast<double>(qi[j]);
    if (a <= 0.0) a = kTau;
    const double b = -grad_[i] + grad_[j];
    double delta = b / a;  // move alpha_i up, alpha_j down
    delta = std::min(delta, upper_ - alpha_[i]);
    delta = std::min(delta, alpha_[j]);
    if (delta <= 0.0) return false;

    const bool i_was_upper = is_upper(i);
    const bool j_was_upper = is_upper(j);
    alpha_[i] += delta;
    alpha_[j] -= delta;
    for (const std::size_t t : active_) {
      grad_[t] +=
          delta * (static_cast<double>(qi[t]) - static_cast<double>(qj[t]));
    }
    if (shrinking_) {
      // Keep G_bar exact across bound crossings (full-length rows; the
      // crossings are rare relative to iterations).
      if (i_was_upper != is_upper(i)) {
        const double sign = is_upper(i) ? upper_ : -upper_;
        for (std::size_t t = 0; t < size(); ++t) {
          g_bar_[t] += sign * static_cast<double>(qi[t]);
        }
      }
      if (j_was_upper != is_upper(j)) {
        const double sign = is_upper(j) ? upper_ : -upper_;
        for (std::size_t t = 0; t < size(); ++t) {
          g_bar_[t] += sign * static_cast<double>(qj[t]);
        }
      }
    }
    return true;
  }

  /// One shrink pass (LibSVM do_shrinking): when the active gap first drops
  /// under 10*eps, unshrink once (exact reconstruction, full active set);
  /// then drop every bounded variable strongly on the right side of its KKT
  /// condition.  Active order stays ascending so working-set tie-breaks
  /// match the unshrunk reference scan.
  void shrink() {
    double m = -std::numeric_limits<double>::infinity();
    double big_m = std::numeric_limits<double>::infinity();
    for (const std::size_t t : active_) {
      if (!is_upper(t)) m = std::max(m, -grad_[t]);
      if (!is_lower(t)) big_m = std::min(big_m, -grad_[t]);
    }
    if (!unshrunk_ && m - big_m <= eps_ * 10.0) {
      unshrunk_ = true;
      reconstruct_gradient();
      reset_active();
      return;
    }
    const std::size_t before = active_.size();
    std::erase_if(active_, [&](std::size_t t) {
      if (is_upper(t)) return -grad_[t] > m;
      if (is_lower(t)) return -grad_[t] < big_m;
      return false;
    });
    if (active_.size() < before) {
      ++stats_.shrink_events;
      stats_.shrunk_variables += before - active_.size();
    }
  }

  /// Exact reconstruction of the stale (inactive) gradient entries:
  ///   G_i = G_bar_i + p_i + sum_{j free} alpha_j Q_ij.
  /// Upper-bounded contributions live in G_bar, zero variables contribute
  /// nothing, so only free rows are touched (and they are cache-hot).
  void reconstruct_gradient() {
    if (active_.size() == size()) return;
    ++stats_.reconstructions;
    std::vector<char> active_mask(size(), 0);
    for (const std::size_t t : active_) active_mask[t] = 1;
    for (std::size_t t = 0; t < size(); ++t) {
      if (!active_mask[t]) grad_[t] = g_bar_[t] + p_[t];
    }
    for (std::size_t j = 0; j < size(); ++j) {
      if (!is_free(j)) continue;
      const auto qj = q_.row(j);
      const double aj = alpha_[j];
      for (std::size_t t = 0; t < size(); ++t) {
        if (!active_mask[t]) grad_[t] += aj * static_cast<double>(qj[t]);
      }
    }
  }

  void reset_active() {
    active_.resize(size());
    std::iota(active_.begin(), active_.end(), std::size_t{0});
  }

 private:
  QMatrix& q_;
  std::span<const double> p_;
  const double upper_;
  const double bound_eps_;
  const double eps_;
  const bool shrinking_;
  std::vector<double>& alpha_;
  std::vector<double>& grad_;
  std::vector<double>& g_bar_;  // U * sum_{j upper} Q_ij, full length
  SolverStats& stats_;
  std::vector<std::size_t> active_;
  bool unshrunk_ = false;
};

/// Deterministic projection of a warm start onto the feasible set: clip to
/// [0, U]; scale down a surplus (stays in-bounds), or fill a deficit into
/// headroom in ascending index order (mirrors the cold greedy fill).
void project_warm_start(std::span<const double> warm_start, double upper_bound,
                        double alpha_sum, std::vector<double>& alpha) {
  double sum = 0.0;
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    alpha[i] = std::clamp(warm_start[i], 0.0, upper_bound);
    sum += alpha[i];
  }
  if (sum > alpha_sum) {
    // Drain the surplus from the smallest coefficients first (ties by
    // index): on a descending regularizer path the marginal, small-alpha
    // vectors are the ones that leave the solution, while uniformly scaling
    // everything down would free every at-bound variable and destroy the
    // seed's bound structure.
    std::vector<std::size_t> order(alpha.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return alpha[a] != alpha[b] ? alpha[a] < alpha[b] : a < b;
    });
    double surplus = sum - alpha_sum;
    for (const std::size_t i : order) {
      if (surplus <= 0.0) break;
      const double take = std::min(alpha[i], surplus);
      alpha[i] -= take;
      surplus -= take;
    }
  } else if (sum < alpha_sum) {
    double deficit = alpha_sum - sum;
    for (std::size_t i = 0; i < alpha.size() && deficit > 0.0; ++i) {
      const double take = std::min(upper_bound - alpha[i], deficit);
      alpha[i] += take;
      deficit -= take;
    }
  }
}

SolverResult solve_smo_impl(QMatrix& q, std::span<const double> p,
                            double upper_bound, double alpha_sum,
                            const SolverConfig& config,
                            std::span<const double> warm_start,
                            const WarmSeed* seed) {
  const std::size_t l = q.size();
  if (p.size() != l) {
    throw std::invalid_argument{"solve_smo: p size mismatch"};
  }
  if (upper_bound <= 0.0) {
    throw std::invalid_argument{"solve_smo: upper_bound must be > 0"};
  }
  if (alpha_sum < 0.0 || alpha_sum > upper_bound * static_cast<double>(l) * (1.0 + 1e-12)) {
    throw std::invalid_argument{
        "solve_smo: infeasible constraints (sum=" + std::to_string(alpha_sum) +
        ", U*l=" + std::to_string(upper_bound * static_cast<double>(l)) + ")"};
  }
  if (!warm_start.empty() && warm_start.size() != l) {
    throw std::invalid_argument{"solve_smo: warm_start size mismatch"};
  }

  const obs::TraceSpan span{"svm.solve", "svm",
                            static_cast<std::uint64_t>(l)};
  const util::Stopwatch stopwatch;
  const std::size_t hits_before = q.cache_hits();
  const std::size_t misses_before = q.cache_misses();

  SolverResult result;
  result.alpha.assign(l, 0.0);
  auto& alpha = result.alpha;

  if (warm_start.empty()) {
    // Feasible start: fill greedily up to the bound (LibSVM's one-class init).
    double remaining = alpha_sum;
    for (std::size_t i = 0; i < l && remaining > 0.0; ++i) {
      const double take = std::min(upper_bound, remaining);
      alpha[i] = take;
      remaining -= take;
    }
  } else {
    project_warm_start(warm_start, upper_bound, alpha_sum, alpha);
  }

  SmoWorkspace ws{q, p, upper_bound, config, result};
  if (seed != nullptr) {
    ws.init_gradient_from_seed(*seed);
  } else {
    ws.init_gradient();
  }
  auto& grad = result.gradient;

  const std::size_t max_iter =
      config.max_iter > 0
          ? config.max_iter
          : std::max<std::size_t>(10'000'000, 100 * l);
  const std::size_t shrink_interval =
      config.shrink_interval > 0 ? config.shrink_interval
                                 : std::min<std::size_t>(l, 1000);

  std::size_t shrink_counter = shrink_interval;
  std::size_t iter = 0;
  for (; iter < max_iter; ++iter) {
    if (config.shrinking && --shrink_counter == 0) {
      shrink_counter = shrink_interval;
      ws.shrink();
    }

    auto sel = ws.select_working_set();
    if (sel.i < 0 || sel.gap < config.eps) {
      if (ws.active_size() == ws.size()) {
        result.stats.converged = true;
        break;
      }
      // Converged only on the shrunk problem: rebuild the exact full
      // gradient and re-check optimality over every variable.  LibSVM's
      // counter-of-1 forces an immediate re-shrink if work remains.
      ws.reconstruct_gradient();
      ws.reset_active();
      shrink_counter = 1;
      sel = ws.select_working_set();
      if (sel.i < 0 || sel.gap < config.eps) {
        result.stats.converged = true;
        break;
      }
    }
    if (sel.j < 0) {
      result.stats.converged = true;  // numerical corner: no admissible pair
      break;
    }
    if (!ws.update_pair(static_cast<std::size_t>(sel.i),
                        static_cast<std::size_t>(sel.j))) {
      // Degenerate (bounds already tight): nothing to move; the pair will
      // not be selected again because gradients are unchanged, so bail out
      // rather than loop forever.
      result.stats.converged = true;
      break;
    }
  }
  result.stats.iterations = iter;

  // Any exit while shrunk (max_iter, degenerate pair) must still hand back
  // the true full gradient: rho/R and the objective are computed from it.
  ws.reconstruct_gradient();

  // Objective 0.5 a^T Q a + p^T a = 0.5 * sum_i a_i (G_i + p_i).
  double objective = 0.0;
  for (std::size_t i = 0; i < l; ++i) {
    objective += alpha[i] * (grad[i] + p[i]);
  }
  result.objective = 0.5 * objective;

  result.stats.cache_hits = q.cache_hits() - hits_before;
  result.stats.cache_misses = q.cache_misses() - misses_before;
  publish_solver_stats(q.params().type, result.stats,
                       stopwatch.elapsed_seconds() * 1e9);
  return result;
}

}  // namespace

SolverResult solve_smo(QMatrix& q, std::span<const double> p,
                       double upper_bound, double alpha_sum,
                       const SolverConfig& config,
                       std::span<const double> warm_start) {
  return solve_smo_impl(q, p, upper_bound, alpha_sum, config, warm_start,
                        nullptr);
}

SolverResult solve_smo(QMatrix& q, std::span<const double> p,
                       double upper_bound, double alpha_sum,
                       const SolverConfig& config, const WarmSeed& seed) {
  const std::size_t l = q.size();
  if (seed.alpha.size() != l || seed.gradient.size() != l ||
      (!seed.g_bar.empty() && seed.g_bar.size() != l)) {
    throw std::invalid_argument{"solve_smo: warm seed size mismatch"};
  }
  if (seed.upper_bound <= 0.0) {
    throw std::invalid_argument{"solve_smo: warm seed upper_bound must be > 0"};
  }
  return solve_smo_impl(q, p, upper_bound, alpha_sum, config, seed.alpha,
                        &seed);
}

}  // namespace wtp::svm
