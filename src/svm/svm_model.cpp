#include "svm/svm_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "obs/registry.h"
#include "obs/trace.h"
#include "svm/model_io.h"
#include "util/strings.h"

namespace wtp::svm {

namespace {

/// SVDD's geometry terms from the solution.  With G_i = 2 (K alpha)_i - K_ii:
///   alpha^T K alpha = sum_i alpha_i (G_i + K_ii) / 2
///   squared distance of x_i to center: r_i = K_ii - 2 (K alpha)_i + aKa
///                                          = -G_i + aKa
/// Free SVs sit on the sphere, so R^2 = aKa - mean(G_free); with no free
/// SVs, R^2 is the KKT midpoint (inside points have r_i <= R^2 <= outside).
/// Returns {R^2, aKa}.
std::pair<double, double> svdd_geometry(const SolverResult& solved,
                                        const QMatrix& q, double upper_bound) {
  const std::size_t l = solved.alpha.size();
  double alpha_k_alpha = 0.0;
  for (std::size_t i = 0; i < l; ++i) {
    alpha_k_alpha += solved.alpha[i] * (solved.gradient[i] + q.kernel_diag(i)) / 2.0;
  }
  const double bound_eps = upper_bound * 1e-12;
  double free_sum = 0.0;
  std::size_t free_count = 0;
  double inside_max = -std::numeric_limits<double>::infinity();  // r_i, alpha=0
  double outside_min = std::numeric_limits<double>::infinity();  // r_i, alpha=C
  for (std::size_t i = 0; i < l; ++i) {
    const double r_i = -solved.gradient[i] + alpha_k_alpha;
    if (solved.alpha[i] <= bound_eps) {
      inside_max = std::max(inside_max, r_i);
    } else if (solved.alpha[i] >= upper_bound - bound_eps) {
      outside_min = std::min(outside_min, r_i);
    } else {
      free_sum += r_i;
      ++free_count;
    }
  }
  double r_squared = 0.0;
  if (free_count > 0) {
    r_squared = free_sum / static_cast<double>(free_count);
  } else if (std::isinf(inside_max) && std::isinf(outside_min)) {
    r_squared = 0.0;
  } else if (std::isinf(inside_max)) {
    r_squared = outside_min;
  } else if (std::isinf(outside_min)) {
    r_squared = inside_max;
  } else {
    r_squared = 0.5 * (inside_max + outside_min);
  }
  return {r_squared, alpha_k_alpha};
}

}  // namespace

std::string_view to_string(SvmKind kind) noexcept {
  switch (kind) {
    case SvmKind::kOcSvm: return "oc-svm";
    case SvmKind::kSvdd: return "svdd";
  }
  return "?";
}

SvmKind parse_svm_kind(std::string_view text) {
  const std::string lowered = util::to_lower(text);
  if (lowered == "oc-svm") return SvmKind::kOcSvm;
  if (lowered == "svdd") return SvmKind::kSvdd;
  throw std::runtime_error{"parse_svm_kind: unknown classifier '" +
                           std::string{text} + "'"};
}

double compute_rho(std::span<const double> alpha, std::span<const double> gradient,
                   double upper_bound) {
  const double bound_eps = upper_bound * 1e-12;
  double free_sum = 0.0;
  std::size_t free_count = 0;
  // KKT: alpha_i = 0 -> G_i >= rho; alpha_i = U -> G_i <= rho; free -> G_i = rho.
  double upper_limit = std::numeric_limits<double>::infinity();   // min G over alpha=0
  double lower_limit = -std::numeric_limits<double>::infinity();  // max G over alpha=U
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    if (alpha[i] <= bound_eps) {
      upper_limit = std::min(upper_limit, gradient[i]);
    } else if (alpha[i] >= upper_bound - bound_eps) {
      lower_limit = std::max(lower_limit, gradient[i]);
    } else {
      free_sum += gradient[i];
      ++free_count;
    }
  }
  if (free_count > 0) return free_sum / static_cast<double>(free_count);
  if (std::isinf(upper_limit) && std::isinf(lower_limit)) return 0.0;
  if (std::isinf(upper_limit)) return lower_limit;
  if (std::isinf(lower_limit)) return upper_limit;
  return 0.5 * (upper_limit + lower_limit);
}

SvmModel SvmModel::from_solution(SvmKind kind, const util::FeatureMatrix& data,
                                 const KernelParams& kernel, double upper_bound,
                                 const QMatrix& q, const SolverResult& solved,
                                 std::vector<std::uint32_t>* support_rows) {
  SvmModel model;
  model.kind_ = kind;
  model.kernel_ = kernel;
  if (kind == SvmKind::kOcSvm) {
    model.scalar0_ = compute_rho(solved.alpha, solved.gradient, upper_bound);
  } else {
    std::tie(model.scalar0_, model.scalar1_) =
        svdd_geometry(solved, q, upper_bound);
  }
  model.solver_stats_ = solved.stats;
  util::FeatureMatrixBuilder svs;
  for (std::size_t i = 0; i < data.rows(); ++i) {
    if (solved.alpha[i] > 1e-12) {
      svs.add_row(data, i);
      model.coefficients_.push_back(solved.alpha[i]);
      if (support_rows != nullptr) {
        support_rows->push_back(static_cast<std::uint32_t>(i));
      }
    }
  }
  model.support_vectors_ = svs.build(data.cols());
  // Inherit the training matrix's bitset layout (schema-derived when the
  // caller used ensure_bitset) so decision-time query encodings can be
  // borrowed zero-copy across same-layout matrices.  On every backend, so
  // one model has one layout (the csr backend just never reads it).
  if (const auto bitset = data.bitset()) {
    model.support_vectors_.ensure_bitset(bitset->numeric_cols);
  }
  return model;
}

std::vector<SvmModel> SvmModel::fit_path(SvmKind kind,
                                         const util::FeatureMatrix& data,
                                         const SvmConfig& config,
                                         std::span<const double> regularizers,
                                         std::size_t dimension,
                                         PathStats* stats) {
  if (data.empty()) {
    throw std::invalid_argument{"SvmModel::fit_path: empty training set"};
  }
  const bool svdd = kind == SvmKind::kSvdd;
  for (const double r : regularizers) {
    if (r <= 0.0 || r > 1.0) {
      throw std::invalid_argument{std::string{"SvmModel::fit_path: "} +
                                  (svdd ? "C" : "nu") + " must be in (0, 1]"};
    }
  }
  KernelParams kernel = config.kernel;
  if (kernel.gamma <= 0.0) {
    kernel.gamma = 1.0 / static_cast<double>(std::max<std::size_t>(1, dimension));
  }

  const obs::TraceSpan path_span{"svm.fit_path", "svm",
                                 static_cast<std::uint64_t>(regularizers.size())};
  obs::Registry::global().counter("solver.path_columns").add(1);

  // The one place the two duals differ (svm_model.h): Q = K, p = 0 for
  // OC-SVM; Q = 2K, p_i = -K_ii for SVDD.
  const std::size_t l = data.rows();
  QMatrix q{data, kernel, /*scale=*/svdd ? 2.0 : 1.0, kKernelCacheBytes,
            config.gram_cache};
  std::vector<double> p(l, 0.0);
  if (svdd) {
    for (std::size_t i = 0; i < l; ++i) p[i] = -q.kernel_diag(i);
  }
  SolverConfig solver_config;
  solver_config.eps = config.eps;
  solver_config.shrinking = config.shrinking;
  solver_config.shrink_interval = config.shrink_interval;

  std::vector<SvmModel> models;
  models.reserve(regularizers.size());
  SolverResult previous;
  double previous_upper = 0.0;
  for (const double r : regularizers) {
    // OC-SVM: box [0, 1], sum nu*l.  SVDD: box [0, max(C, 1/l)], sum 1.
    const double upper = svdd ? std::max(r, 1.0 / static_cast<double>(l)) : 1.0;
    const double alpha_sum = svdd ? 1.0 : r * static_cast<double>(l);
    // Subsequent cells seed from the previous solution (alpha, gradient and
    // G_bar), so the solver pays only for what the projection changed.
    SolverResult solved =
        previous.alpha.empty()
            ? solve_smo(q, p, upper, alpha_sum, solver_config)
            : solve_smo(q, p, upper, alpha_sum, solver_config,
                        WarmSeed{previous.alpha, previous.gradient,
                                 previous.g_bar, previous_upper});
    std::vector<std::uint32_t>* support_rows = nullptr;
    if (stats != nullptr) {
      stats->cells.push_back(solved.stats);
      support_rows = &stats->support_rows.emplace_back();
    }
    models.push_back(
        from_solution(kind, data, kernel, upper, q, solved, support_rows));
    previous = std::move(solved);
    previous_upper = upper;
  }
  if (stats != nullptr) {
    stats->cache_hits = q.cache_hits();
    stats->cache_misses = q.cache_misses();
  }
  return models;
}

SvmModel SvmModel::train(SvmKind kind, const util::FeatureMatrix& data,
                         const SvmConfig& config, std::size_t dimension) {
  return std::move(
      fit_path(kind, data, config, {&config.regularizer, 1}, dimension).front());
}

SvmModel SvmModel::from_parts(SvmKind kind, KernelParams kernel,
                              util::FeatureMatrix support_vectors,
                              std::vector<double> coefficients, double scalar0,
                              double scalar1) {
  if (support_vectors.rows() != coefficients.size()) {
    throw std::invalid_argument{"SvmModel::from_parts: SV/coefficient size mismatch"};
  }
  SvmModel model;
  model.kind_ = kind;
  model.kernel_ = kernel;
  model.support_vectors_ = std::move(support_vectors);
  model.coefficients_ = std::move(coefficients);
  model.scalar0_ = scalar0;
  model.scalar1_ = scalar1;
  return model;
}

double SvmModel::decision_value(const util::SparseVector& x, double x_sqnorm,
                                TransformMode tier) const {
  return view_of(*this).decision_value(KernelQueries::row(x, x_sqnorm), tier);
}

void SvmModel::decision_values(const util::FeatureMatrix& queries,
                               std::span<double> out, TransformMode tier) const {
  view_of(*this).decision_values(queries, out, tier);
}

}  // namespace wtp::svm
