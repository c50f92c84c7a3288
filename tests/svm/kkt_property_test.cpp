// Property tests: the SMO solver's output must satisfy the KKT conditions
// of the QP  min 0.5 a^T Q a + p^T a  s.t.  0 <= a_i <= U, sum a_i = S:
//
//   there exists rho such that, within tolerance,
//     a_i = 0  =>  G_i >= rho
//     a_i = U  =>  G_i <= rho
//     0<a_i<U  =>  G_i == rho
//
// where G = Q a + p.  These hold for every kernel family and for both the
// OC-SVM and SVDD instantiations, across randomized problems.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "svm/smo_solver.h"
#include "svm/svm_model.h"
#include "svm/svm_test_util.h"
#include "util/rng.h"

namespace wtp::svm {
namespace {

std::vector<util::SparseVector> random_points(util::Rng& rng, std::size_t count,
                                              std::size_t dim) {
  std::vector<util::SparseVector> points;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<double> dense(dim, 0.0);
    const std::size_t nnz = 1 + rng.uniform_index(dim);
    for (std::size_t k = 0; k < nnz; ++k) {
      dense[rng.uniform_index(dim)] = rng.uniform();
    }
    points.push_back(util::SparseVector::from_dense(dense));
  }
  return points;
}

/// Verifies the KKT system; returns the maximum violation found.
double kkt_violation(std::span<const double> alpha, std::span<const double> gradient,
                     double upper_bound) {
  // rho must lie in [max G over upper-bounded, min G over zero] and match
  // free-vector gradients; measure how far that system is from consistent.
  const double rho = compute_rho(alpha, gradient, upper_bound);
  double violation = 0.0;
  const double bound_eps = upper_bound * 1e-9;
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    if (alpha[i] <= bound_eps) {
      violation = std::max(violation, rho - gradient[i]);       // need G >= rho
    } else if (alpha[i] >= upper_bound - bound_eps) {
      violation = std::max(violation, gradient[i] - rho);       // need G <= rho
    } else {
      violation = std::max(violation, std::abs(gradient[i] - rho));
    }
  }
  return violation;
}

struct KktCase {
  KernelType kernel;
  double upper_bound;
  double sum_fraction;  // alpha_sum = fraction * U * l
  bool shrinking;
};

class SolverKktTest : public ::testing::TestWithParam<KktCase> {};

TEST_P(SolverKktTest, SolutionSatisfiesKkt) {
  const KktCase param = GetParam();
  util::Rng rng{static_cast<std::uint64_t>(param.kernel) * 1000 + 7};
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t l = 30 + rng.uniform_index(50);
    const auto data = random_points(rng, l, 12);
    const auto matrix = util::FeatureMatrix::from_rows(data);
    KernelParams kernel{param.kernel, 0.3, 0.5, 2};
    QMatrix q{matrix, kernel, 1.0, 1 << 20};
    const std::vector<double> p(l, 0.0);
    SolverConfig config;
    config.eps = 1e-4;
    config.shrinking = param.shrinking;
    config.shrink_interval = param.shrinking ? 8 : 0;  // force frequent passes
    const double alpha_sum =
        param.sum_fraction * param.upper_bound * static_cast<double>(l);
    const auto result = solve_smo(q, p, param.upper_bound, alpha_sum, config);
    // The sigmoid kernel is indefinite: SMO still terminates but the KKT
    // certificate only holds approximately; loosen accordingly.
    const double tolerance =
        param.kernel == KernelType::kSigmoid ? 5e-2 : 5e-3;
    EXPECT_LE(kkt_violation(result.alpha, result.gradient, param.upper_bound),
              tolerance)
        << "trial " << trial << " l=" << l;
  }
}

std::vector<KktCase> kkt_cases() {
  std::vector<KktCase> cases;
  for (const bool shrinking : {false, true}) {
    cases.push_back({KernelType::kLinear, 1.0, 0.3, shrinking});
    cases.push_back({KernelType::kRbf, 1.0, 0.5, shrinking});
    cases.push_back({KernelType::kRbf, 0.1, 0.8, shrinking});
    cases.push_back({KernelType::kPolynomial, 1.0, 0.4, shrinking});
    cases.push_back({KernelType::kSigmoid, 1.0, 0.5, shrinking});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndBounds, SolverKktTest, ::testing::ValuesIn(kkt_cases()),
    [](const ::testing::TestParamInfo<KktCase>& info) {
      return std::string{to_string(info.param.kernel)} + "_U" +
             std::to_string(static_cast<int>(info.param.upper_bound * 10)) +
             "_S" + std::to_string(static_cast<int>(info.param.sum_fraction * 10)) +
             (info.param.shrinking ? "_shrink" : "_noshrink");
    });

// Post-reconstruction invariant: after a shrunk solve terminates, the
// returned gradient is the exact full-length G = Q alpha + p, and every
// variable the solver ever shrunk out (necessarily at a bound) still
// satisfies its KKT condition against that final gradient.  A problem large
// enough — with a short shrink interval — to guarantee shrinking triggers.
TEST(ShrinkingKkt, ShrunkOutVariablesSatisfyKktOnReconstructedGradient) {
  util::Rng rng{4242};
  const auto data = random_points(rng, 160, 10);
  const auto matrix = util::FeatureMatrix::from_rows(data);
  const std::size_t l = matrix.rows();
  const std::vector<double> p(l, 0.0);
  KernelParams kernel{KernelType::kRbf, 0.5, 0.0, 3};

  SolverConfig config;
  config.eps = 1e-6;
  config.shrinking = true;
  config.shrink_interval = 4;
  QMatrix q{matrix, kernel, 1.0, 1 << 22};
  const auto result = solve_smo(q, p, 1.0, 0.2 * static_cast<double>(l), config);

  ASSERT_TRUE(result.stats.converged);
  EXPECT_GT(result.stats.shrink_events, 0u)
      << "test must actually exercise shrinking";
  EXPECT_GT(result.stats.shrunk_variables, 0u);
  EXPECT_GT(result.stats.reconstructions, 0u)
      << "exit from a shrunk state must rebuild the full gradient";

  // The returned gradient must equal Q alpha + p recomputed from scratch —
  // the reconstruction is exact, not approximate.
  for (std::size_t i = 0; i < l; ++i) {
    const auto row = q.row(i);
    double g = p[i];
    for (std::size_t j = 0; j < l; ++j) g += result.alpha[j] * row[j];
    EXPECT_NEAR(result.gradient[i], g, 1e-9) << "gradient entry " << i;
  }

  // Full-problem KKT on the final gradient: shrunk-out variables are the
  // bounded ones, so the bound branches of this check cover exactly them.
  EXPECT_LE(kkt_violation(result.alpha, result.gradient, 1.0), 5e-3);
}

TEST(OneClassKkt, TrainedModelsSatisfyKktAcrossNu) {
  util::Rng rng{99};
  const auto data = random_points(rng, 80, 10);
  for (const double nu : {0.05, 0.2, 0.5, 0.8}) {
    SvmConfig config;
    config.regularizer = nu;
    config.kernel = {KernelType::kRbf, 0.5, 0.0, 3};
    config.eps = 1e-4;
    const auto model = SvmModel::train(
        SvmKind::kOcSvm, util::FeatureMatrix::from_rows(data), config, 10);
    // Every free SV must sit on the decision boundary.
    for (std::size_t i = 0; i < model.support_vectors().rows(); ++i) {
      const double alpha = model.coefficients()[i];
      if (alpha > 1e-8 && alpha < 1.0 - 1e-8) {
        EXPECT_NEAR(
            testing::decide(model, model.support_vectors().row_vector(i)), 0.0,
            5e-3)
            << "nu=" << nu;
      }
    }
  }
}

TEST(SvddKkt, FreeSupportVectorsSitOnTheSphere) {
  util::Rng rng{101};
  const auto data = random_points(rng, 70, 8);
  for (const double c : {0.05, 0.2, 1.0}) {
    SvmConfig config;
    config.regularizer = c;
    config.kernel = {KernelType::kRbf, 0.4, 0.0, 3};
    config.eps = 1e-6;
    const auto model = SvmModel::train(
        SvmKind::kSvdd, util::FeatureMatrix::from_rows(data), config, 8);
    // The box is [0, max(C, 1/l)]; the squared distance to the center is
    // R^2 - f(x).
    const double upper = std::max(c, 1.0 / static_cast<double>(data.size()));
    for (std::size_t i = 0; i < model.support_vectors().rows(); ++i) {
      const double alpha = model.coefficients()[i];
      if (alpha > 1e-8 && alpha < upper - 1e-8) {
        const double squared_distance =
            model.scalar0() -
            testing::decide(model, model.support_vectors().row_vector(i));
        EXPECT_NEAR(squared_distance, model.scalar0(), 5e-3) << "C=" << c;
      }
    }
  }
}

}  // namespace
}  // namespace wtp::svm
