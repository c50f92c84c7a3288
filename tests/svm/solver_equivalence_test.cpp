// Solver-equivalence layer: the shrinking fast path and the warm-started
// regularizer paths must be behaviourally indistinguishable from the
// reference oracles (shrinking off, cold per-cell fits).
//
//   * shrinking on vs off: same objective within 1e-9, identical
//     support-vector index sets, identical rho (OC-SVM) / R^2 (SVDD);
//   * fit_path vs cold fits: identical decision values on a held-out query
//     matrix within tight tolerance, and the shared kernel cache must show
//     actual reuse (hits > 0) across the sweep.
//
// Every kernel family x both classifiers x the paper's nu/C column.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "svm/smo_solver.h"
#include "svm/svm_model.h"
#include "util/feature_matrix.h"
#include "util/rng.h"

namespace wtp::svm {
namespace {

constexpr double kObjectiveTol = 1e-9;
constexpr double kSvAlphaTol = 1e-12;  // SV membership threshold (as training)

std::vector<util::SparseVector> random_points(util::Rng& rng, std::size_t count,
                                              std::size_t dim) {
  std::vector<util::SparseVector> points;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<double> dense(dim, 0.0);
    const std::size_t nnz = 2 + rng.uniform_index(dim - 1);
    for (std::size_t k = 0; k < nnz; ++k) {
      dense[rng.uniform_index(dim)] = rng.uniform(0.1, 1.5);
    }
    points.push_back(util::SparseVector::from_dense(dense));
  }
  return points;
}

std::vector<std::size_t> sv_indices(std::span<const double> alpha) {
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    if (alpha[i] > kSvAlphaTol) indices.push_back(i);
  }
  return indices;
}

KernelParams test_kernel(KernelType type) {
  switch (type) {
    case KernelType::kLinear: return {type, 1.0, 0.0, 3};
    case KernelType::kPolynomial: return {type, 0.4, 1.0, 3};
    case KernelType::kRbf: return {type, 0.5, 0.0, 3};
    case KernelType::kSigmoid: return {type, 0.2, 0.3, 3};
  }
  return {type, 1.0, 0.0, 3};
}

/// The regularizer column the paper sweeps per kernel (a representative
/// subset of Tab. III, descending as the production grid iterates it).
std::vector<double> regularizer_column() {
  return {0.999, 0.9, 0.7, 0.5, 0.2, 0.05};
}

class ShrinkEquivalenceTest : public ::testing::TestWithParam<KernelType> {};

// Solver-level oracle: identical objective, identical SV index set on both
// one-class instantiations of the QP, for every regularizer in the column.
TEST_P(ShrinkEquivalenceTest, OcSvmQpMatchesUnshrunkOracle) {
  const KernelParams kernel = test_kernel(GetParam());
  util::Rng rng{static_cast<std::uint64_t>(GetParam()) * 131 + 17};
  const auto data = random_points(rng, 64, 16);
  const auto matrix = util::FeatureMatrix::from_rows(data);
  const std::vector<double> p(matrix.rows(), 0.0);

  for (const double nu : regularizer_column()) {
    const double alpha_sum = nu * static_cast<double>(matrix.rows());
    SolverConfig config;
    config.eps = 1e-8;
    config.shrinking = false;
    QMatrix q_off{matrix, kernel, 1.0, 1 << 20};
    const auto off = solve_smo(q_off, p, 1.0, alpha_sum, config);

    config.shrinking = true;
    config.shrink_interval = 8;  // force many shrink passes on small l
    QMatrix q_on{matrix, kernel, 1.0, 1 << 20};
    const auto on = solve_smo(q_on, p, 1.0, alpha_sum, config);

    EXPECT_TRUE(off.stats.converged);
    EXPECT_TRUE(on.stats.converged);
    EXPECT_NEAR(on.objective, off.objective, kObjectiveTol)
        << "nu=" << nu << " kernel=" << to_string(GetParam());
    EXPECT_EQ(sv_indices(on.alpha), sv_indices(off.alpha))
        << "nu=" << nu << " kernel=" << to_string(GetParam());
    EXPECT_NEAR(compute_rho(on.alpha, on.gradient, 1.0),
                compute_rho(off.alpha, off.gradient, 1.0), 1e-8)
        << "nu=" << nu;
  }
}

TEST_P(ShrinkEquivalenceTest, SvddQpMatchesUnshrunkOracle) {
  const KernelParams kernel = test_kernel(GetParam());
  util::Rng rng{static_cast<std::uint64_t>(GetParam()) * 977 + 5};
  const auto data = random_points(rng, 56, 12);
  const auto matrix = util::FeatureMatrix::from_rows(data);
  const std::size_t l = matrix.rows();

  for (const double c : regularizer_column()) {
    const double effective_c = std::max(c, 1.0 / static_cast<double>(l));
    SolverConfig config;
    config.eps = 1e-8;
    config.shrinking = false;
    QMatrix q_off{matrix, kernel, 2.0, 1 << 20};
    std::vector<double> p(l);
    for (std::size_t i = 0; i < l; ++i) p[i] = -q_off.kernel_diag(i);
    const auto off = solve_smo(q_off, p, effective_c, 1.0, config);

    config.shrinking = true;
    config.shrink_interval = 8;
    QMatrix q_on{matrix, kernel, 2.0, 1 << 20};
    const auto on = solve_smo(q_on, p, effective_c, 1.0, config);

    EXPECT_TRUE(off.stats.converged);
    EXPECT_TRUE(on.stats.converged);
    EXPECT_NEAR(on.objective, off.objective, kObjectiveTol)
        << "C=" << c << " kernel=" << to_string(GetParam());
    EXPECT_EQ(sv_indices(on.alpha), sv_indices(off.alpha))
        << "C=" << c << " kernel=" << to_string(GetParam());
  }
}

// Model-level oracle: trained models must agree on rho / R^2 and on every
// decision value over a held-out query matrix.
TEST_P(ShrinkEquivalenceTest, TrainedModelsMatchAcrossShrinking) {
  const KernelParams kernel = test_kernel(GetParam());
  util::Rng rng{static_cast<std::uint64_t>(GetParam()) * 389 + 23};
  const auto train = util::FeatureMatrix::from_rows(random_points(rng, 60, 14));
  const auto queries = util::FeatureMatrix::from_rows(random_points(rng, 40, 14));

  for (const double reg : {0.9, 0.5, 0.1}) {
    SvmConfig oc;
    oc.regularizer = reg;
    oc.kernel = kernel;
    oc.eps = 1e-8;
    oc.shrinking = false;
    const auto oc_off = SvmModel::train(SvmKind::kOcSvm, train, oc, 14);
    oc.shrinking = true;
    const auto oc_on = SvmModel::train(SvmKind::kOcSvm, train, oc, 14);
    EXPECT_NEAR(oc_on.scalar0(), oc_off.scalar0(), 1e-8) << "nu=" << reg;
    ASSERT_EQ(oc_on.support_vectors().rows(), oc_off.support_vectors().rows());

    SvmConfig sv;
    sv.regularizer = reg;
    sv.kernel = kernel;
    sv.eps = 1e-8;
    sv.shrinking = false;
    const auto sv_off = SvmModel::train(SvmKind::kSvdd, train, sv, 14);
    sv.shrinking = true;
    const auto sv_on = SvmModel::train(SvmKind::kSvdd, train, sv, 14);
    EXPECT_NEAR(sv_on.scalar0(), sv_off.scalar0(), 1e-8) << "C=" << reg;
    ASSERT_EQ(sv_on.support_vectors().rows(), sv_off.support_vectors().rows());

    std::vector<double> d_off(queries.rows());
    std::vector<double> d_on(queries.rows());
    oc_off.decision_values(queries, d_off);
    oc_on.decision_values(queries, d_on);
    for (std::size_t i = 0; i < queries.rows(); ++i) {
      EXPECT_NEAR(d_on[i], d_off[i], 1e-8) << "oc-svm query " << i;
    }
    sv_off.decision_values(queries, d_off);
    sv_on.decision_values(queries, d_on);
    for (std::size_t i = 0; i < queries.rows(); ++i) {
      EXPECT_NEAR(d_on[i], d_off[i], 1e-8) << "svdd query " << i;
    }
  }
}

// Warm-started fit_path vs cold per-cell fits: decision values over a
// held-out query matrix must match, and the shared QMatrix cache must show
// reuse across the sweep — the observable fact that kernel work was shared.
TEST_P(ShrinkEquivalenceTest, WarmPathMatchesColdFitsOcSvm) {
  const KernelParams kernel = test_kernel(GetParam());
  util::Rng rng{static_cast<std::uint64_t>(GetParam()) * 769 + 3};
  const auto train = util::FeatureMatrix::from_rows(random_points(rng, 70, 14));
  const auto queries = util::FeatureMatrix::from_rows(random_points(rng, 48, 14));
  const auto nus = regularizer_column();

  SvmConfig config;
  config.kernel = kernel;
  config.eps = 1e-8;
  PathStats stats;
  const auto path =
      SvmModel::fit_path(SvmKind::kOcSvm, train, config, nus, 14, &stats);
  ASSERT_EQ(path.size(), nus.size());
  ASSERT_EQ(stats.cells.size(), nus.size());
  EXPECT_GT(stats.cache_hits, 0u)
      << "regularizer sweep must reuse cached kernel rows";

  std::vector<double> d_path(queries.rows());
  std::vector<double> d_cold(queries.rows());
  for (std::size_t n = 0; n < nus.size(); ++n) {
    config.regularizer = nus[n];
    const auto cold = SvmModel::train(SvmKind::kOcSvm, train, config, 14);
    EXPECT_NEAR(path[n].scalar0(), cold.scalar0(), 1e-6) << "nu=" << nus[n];
    path[n].decision_values(queries, d_path);
    cold.decision_values(queries, d_cold);
    for (std::size_t i = 0; i < queries.rows(); ++i) {
      ASSERT_NEAR(d_path[i], d_cold[i], 1e-6)
          << "nu=" << nus[n] << " query " << i;
    }
  }
}

TEST_P(ShrinkEquivalenceTest, WarmPathMatchesColdFitsSvdd) {
  const KernelParams kernel = test_kernel(GetParam());
  util::Rng rng{static_cast<std::uint64_t>(GetParam()) * 571 + 11};
  const auto train = util::FeatureMatrix::from_rows(random_points(rng, 66, 14));
  const auto queries = util::FeatureMatrix::from_rows(random_points(rng, 48, 14));
  const auto cs = regularizer_column();

  SvmConfig config;
  config.kernel = kernel;
  config.eps = 1e-8;
  PathStats stats;
  const auto path =
      SvmModel::fit_path(SvmKind::kSvdd, train, config, cs, 14, &stats);
  ASSERT_EQ(path.size(), cs.size());
  ASSERT_EQ(stats.cells.size(), cs.size());
  EXPECT_GT(stats.cache_hits, 0u)
      << "regularizer sweep must reuse cached kernel rows";

  std::vector<double> d_path(queries.rows());
  std::vector<double> d_cold(queries.rows());
  for (std::size_t n = 0; n < cs.size(); ++n) {
    config.regularizer = cs[n];
    const auto cold = SvmModel::train(SvmKind::kSvdd, train, config, 14);
    EXPECT_NEAR(path[n].scalar0(), cold.scalar0(), 1e-6) << "C=" << cs[n];
    path[n].decision_values(queries, d_path);
    cold.decision_values(queries, d_cold);
    for (std::size_t i = 0; i < queries.rows(); ++i) {
      ASSERT_NEAR(d_path[i], d_cold[i], 1e-6)
          << "C=" << cs[n] << " query " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, ShrinkEquivalenceTest,
                         ::testing::Values(KernelType::kLinear,
                                           KernelType::kPolynomial,
                                           KernelType::kRbf,
                                           KernelType::kSigmoid),
                         [](const ::testing::TestParamInfo<KernelType>& info) {
                           return std::string{to_string(info.param)};
                         });

}  // namespace
}  // namespace wtp::svm
