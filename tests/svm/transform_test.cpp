// Transform plane (DESIGN §14): adversarial exact-tier edges and the
// relaxed tier's contracts.
//
// Exact tier: kernel_transform must equal per-pair kernel_eval BITWISE on
// every dispatched backend, including the hostile inputs the clamp and the
// fp-contract pinning exist for — catastrophic cancellation around
// sq_dist == 0, denormal dots, and ±inf/NaN propagation.
//
// Relaxed tier: opt-in only, by argument (an exported WTP_TRANSFORM_MODE
// changes nothing in library code), documented max-ULP bounds (exp <= 4,
// tanh <= 8 — see svm/relaxed_math.h) verified against libm on every
// backend, specials preserved, and training always exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "svm/kernel.h"
#include "svm/kernel_scalar_body.h"
#include "svm/relaxed_math.h"
#include "svm/svm_model.h"
#include "util/feature_matrix.h"
#include "util/rng.h"
#include "util/sparse_vector.h"

namespace wtp::svm {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// Restores the env-selected backend however a test exits.
struct TransformGuard {
  ~TransformGuard() { set_kernel_backend_for_testing(""); }
};

// Exports WTP_TRANSFORM_MODE=relaxed for a scope, restoring the prior value.
class RelaxedEnv {
 public:
  RelaxedEnv() {
    if (const char* old = std::getenv(kName)) old_ = old;
    ::setenv(kName, "relaxed", 1);
  }
  ~RelaxedEnv() {
    if (old_) {
      ::setenv(kName, old_->c_str(), 1);
    } else {
      ::unsetenv(kName);
    }
  }

 private:
  static constexpr const char* kName = "WTP_TRANSFORM_MODE";
  std::optional<std::string> old_;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// ULP distance between two finite doubles of the same sign (monotone
/// integer mapping of the IEEE ordering).
std::uint64_t ulp_distance(double a, double b) {
  const auto key = [](double v) {
    const std::int64_t raw = std::bit_cast<std::int64_t>(v);
    return raw >= 0 ? raw : std::numeric_limits<std::int64_t>::min() - raw;
  };
  const std::int64_t ka = key(a);
  const std::int64_t kb = key(b);
  return static_cast<std::uint64_t>(ka > kb ? ka - kb : kb - ka);
}

/// Dense two-entry vectors so dots/norms are exactly the values we pick.
util::SparseVector vec2(double a, double b) {
  return util::SparseVector{{{0, a}, {1, b}}};
}

/// Transform == per-pair kernel_eval, bitwise, on the given rows/queries,
/// for every supported backend and every kernel in `kernels`.
void expect_transform_matches_eval(std::span<const util::SparseVector> rows,
                                   std::span<const util::SparseVector> queries,
                                   std::span<const KernelParams> kernels,
                                   std::size_t dim, const char* tag) {
  auto matrix = util::FeatureMatrix::from_rows(rows, dim);
  std::vector<double> out(rows.size());
  for (const auto& params : kernels) {
    for (const auto backend : supported_kernel_backends()) {
      set_kernel_backend_for_testing(backend);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const double sqn = queries[q].squared_norm();
        kernel_block(params, kernel_matrix(matrix), KernelQueries::row(queries[q], sqn),
                     out);
        for (std::size_t r = 0; r < rows.size(); ++r) {
          const double oracle =
              kernel_eval(params, queries[q], rows[r], sqn,
                          rows[r].squared_norm());
          ASSERT_EQ(bits(oracle), bits(out[r]))
              << tag << " " << describe(params) << " backend=" << backend
              << " q=" << q << " row=" << r << " oracle=" << oracle
              << " got=" << out[r];
        }
      }
    }
  }
}

std::vector<KernelParams> all_kernels() {
  return {
      {KernelType::kLinear, 1.0, 0.0, 3},
      {KernelType::kPolynomial, 0.5, 1.0, 3},
      {KernelType::kRbf, 0.25, 0.0, 3},
      {KernelType::kSigmoid, 0.1, 0.5, 3},
  };
}

/// Catastrophic cancellation around sq_dist == 0: near-identical vectors
/// whose x² + y² - 2·dot lands exactly at zero, at tiny negatives (the
/// clamp's reason to exist), and at tiny positives — the SIMD VMAXPD clamp
/// must pick the same side as the scalar ternary every time.
TEST(Transform, RbfClampCancellationEdgeBitwise) {
  TransformGuard guard;
  std::vector<util::SparseVector> rows;
  // Identical pairs: sq_dist is an exact 0 (or a rounding-noise negative).
  rows.push_back(vec2(1.0 / 3.0, 2.0 / 7.0));
  rows.push_back(vec2(0.1, 0.2));
  // One-ULP perturbations straddle the clamp threshold.
  rows.push_back(vec2(std::nextafter(1.0 / 3.0, 1.0), 2.0 / 7.0));
  rows.push_back(vec2(1.0 / 3.0, std::nextafter(2.0 / 7.0, 0.0)));
  // -0.0 valued entry: sq_dist may be -0.0, which must clamp to +0.0.
  rows.push_back(vec2(-0.0, 0.0));
  rows.push_back(vec2(0.0, 0.0));
  std::vector<util::SparseVector> queries;
  queries.push_back(vec2(1.0 / 3.0, 2.0 / 7.0));
  queries.push_back(vec2(0.1, 0.2));
  queries.push_back(vec2(-0.0, 0.0));
  const std::vector<KernelParams> kernels{
      {KernelType::kRbf, 0.25, 0.0, 3},
      {KernelType::kRbf, 1e300, 0.0, 3},  // huge gamma amplifies any slip
  };
  expect_transform_matches_eval(rows, queries, kernels, 4, "clamp");
  // Spot-check the semantic: exact self-similarity is exp(-gamma*0) = 1.
  auto matrix = util::FeatureMatrix::from_rows(
      std::span<const util::SparseVector>{rows}, 4);
  std::vector<double> out(rows.size());
  for (const auto backend : supported_kernel_backends()) {
    set_kernel_backend_for_testing(backend);
    kernel_block(kernels[0], kernel_matrix(matrix),
                 KernelQueries::row(queries[0], queries[0].squared_norm()), out);
    EXPECT_EQ(out[0], 1.0) << backend;
  }
}

/// Denormal dots and norms: the argument assembly must not flush or
/// double-round differently across backends.
TEST(Transform, DenormalDotsBitwise) {
  TransformGuard guard;
  const double denorm = 0x1p-1060;  // deep subnormal product territory
  std::vector<util::SparseVector> rows;
  rows.push_back(vec2(0x1p-530, 0x1p-530));
  rows.push_back(vec2(denorm, 0.0));
  rows.push_back(vec2(std::numeric_limits<double>::denorm_min(), 1.0));
  rows.push_back(vec2(-0x1p-530, 0x1p-1000));
  std::vector<util::SparseVector> queries;
  queries.push_back(vec2(0x1p-530, -0x1p-530));
  queries.push_back(vec2(1.0, std::numeric_limits<double>::denorm_min()));
  queries.push_back(vec2(denorm, denorm));
  const auto kernels = all_kernels();
  expect_transform_matches_eval(rows, queries, kernels, 4, "denormal");
}

/// ±inf / NaN inputs: the transform must propagate exactly what the scalar
/// oracle propagates (RBF's clamp maps a NaN sq_dist to 0 -> kernel 1).
TEST(Transform, InfNanPropagationBitwise) {
  TransformGuard guard;
  std::vector<util::SparseVector> rows;
  rows.push_back(vec2(kInf, 1.0));
  rows.push_back(vec2(-kInf, 2.0));
  rows.push_back(vec2(kNan, 0.5));
  rows.push_back(vec2(std::numeric_limits<double>::max(), 1.0));
  rows.push_back(vec2(1.0, -1.0));
  std::vector<util::SparseVector> queries;
  queries.push_back(vec2(1.0, 1.0));
  queries.push_back(vec2(kInf, 0.0));
  queries.push_back(vec2(kNan, 1.0));
  queries.push_back(vec2(-std::numeric_limits<double>::max(), 2.0));
  const auto kernels = all_kernels();
  expect_transform_matches_eval(rows, queries, kernels, 4, "specials");
}

/// Paper-shape randomized sweep of the same oracle identity, so the edge
/// tests above are anchored by bulk coverage at the real layout.
TEST(Transform, RandomizedPaperShapeBitwise) {
  TransformGuard guard;
  util::Rng rng{20260809};
  std::vector<util::SparseVector> rows;
  std::vector<util::SparseVector> queries;
  for (std::size_t i = 0; i < 40; ++i) {
    std::vector<util::SparseVector::Entry> entries;
    for (std::size_t k = 0; k < 25; ++k) {
      entries.push_back({9 + rng.uniform_index(834), 1.0});
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.index < b.index; });
    entries.erase(std::unique(entries.begin(), entries.end(),
                              [](const auto& a, const auto& b) {
                                return a.index == b.index;
                              }),
                  entries.end());
    entries.push_back({6, rng.uniform() * 3.0});
    entries.push_back({7, (rng.uniform() - 0.5) * 10.0});
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.index < b.index; });
    auto v = util::SparseVector{std::move(entries)};
    (i % 5 == 0 ? queries : rows).push_back(std::move(v));
  }
  const auto kernels = all_kernels();
  expect_transform_matches_eval(rows, queries, kernels, 843, "paper");
}

// ---------------------------------------------------------- relaxed tier --

/// Argument sweep for the relaxed exp: the RBF exponent range plus edges.
std::vector<double> exp_args() {
  std::vector<double> args;
  util::Rng rng{77};
  for (std::size_t i = 0; i < 20000; ++i) {
    args.push_back(-rng.uniform() * 60.0);  // typical RBF exponents
  }
  for (std::size_t i = 0; i < 5000; ++i) {
    args.push_back((rng.uniform() - 0.5) * 1419.0);  // full finite range
  }
  const double edges[] = {0.0,    -0.0,   1e-300, -1e-300, 0.5,    -0.5,
                          709.78, -745.0, -708.3, 708.5,   -745.13, 1.0};
  args.insert(args.end(), std::begin(edges), std::end(edges));
  return args;
}

/// relaxed_exp (scalar stamp) within its documented bound of std::exp:
/// <= 4 ULP for normal results, one extra double-rounding allowed in the
/// subnormal range.
TEST(Transform, RelaxedExpUlpBound) {
  std::uint64_t worst = 0;
  for (const double x : exp_args()) {
    const double want = std::exp(x);
    const double got = detail::relaxed_exp(x);
    const bool subnormal = want < std::numeric_limits<double>::min();
    const std::uint64_t ulps = ulp_distance(want, got);
    ASSERT_LE(ulps, subnormal ? 8u : 4u)
        << "x=" << x << " want=" << want << " got=" << got;
    if (!subnormal) worst = std::max(worst, ulps);
  }
  // The bound is not vacuous: the approximation really is tight.
  EXPECT_LE(worst, 4u);
  EXPECT_EQ(detail::relaxed_exp(kInf), kInf);
  EXPECT_EQ(detail::relaxed_exp(-kInf), 0.0);
  EXPECT_TRUE(std::isnan(detail::relaxed_exp(kNan)));
  EXPECT_EQ(detail::relaxed_exp(800.0), kInf);
  EXPECT_EQ(detail::relaxed_exp(-800.0), 0.0);
}

/// relaxed_tanh within <= 8 ULP of std::tanh, both branches and specials.
TEST(Transform, RelaxedTanhUlpBound) {
  util::Rng rng{78};
  std::vector<double> args;
  for (std::size_t i = 0; i < 20000; ++i) {
    args.push_back((rng.uniform() - 0.5) * 8.0);  // sigmoid working range
  }
  for (std::size_t i = 0; i < 5000; ++i) {
    args.push_back((rng.uniform() - 0.5) * 0.8);  // dense around the cutover
  }
  const double edges[] = {0.35,  -0.35, 0.3499999, 1e-300, -1e-300,
                          20.0,  -20.0, 400.0,     -400.0, 0.0,
                          -0.0,  1.0,   -1.0};
  args.insert(args.end(), std::begin(edges), std::end(edges));
  for (const double x : args) {
    const double want = std::tanh(x);
    const double got = detail::relaxed_tanh(x);
    ASSERT_LE(ulp_distance(want, got), 8u)
        << "x=" << x << " want=" << want << " got=" << got;
  }
  EXPECT_EQ(detail::relaxed_tanh(kInf), 1.0);
  EXPECT_EQ(detail::relaxed_tanh(-kInf), -1.0);
  EXPECT_TRUE(std::isnan(detail::relaxed_tanh(kNan)));
  EXPECT_EQ(bits(detail::relaxed_tanh(0.0)), bits(0.0));
  EXPECT_EQ(bits(detail::relaxed_tanh(-0.0)), bits(-0.0));
}

/// The SIMD relaxed stamps (through kernel_transform under kRelaxed) hold
/// the same ULP bounds vs libm on every backend — lanes may differ from the
/// scalar stamp by the FMA in the Horner chain, but never from libm by more
/// than the documented bound.
TEST(Transform, RelaxedBackendsWithinUlpBoundOfLibm) {
  TransformGuard guard;
  util::Rng rng{79};
  const std::size_t n = 1500;  // crosses the transform tile
  std::vector<double> dots(n);
  std::vector<double> sq_norms(n);
  for (std::size_t j = 0; j < n; ++j) {
    dots[j] = (rng.uniform() - 0.3) * 30.0;
    sq_norms[j] = rng.uniform() * 40.0;
  }
  const double x_sqnorm = 17.25;
  const KernelParams rbf{KernelType::kRbf, 0.05, 0.0, 3};
  const KernelParams sig{KernelType::kSigmoid, 0.1, 0.5, 3};
  std::vector<double> out(n);
  for (const auto backend : supported_kernel_backends()) {
    set_kernel_backend_for_testing(backend);
    std::copy(dots.begin(), dots.end(), out.begin());
    kernel_transform(rbf, sq_norms, x_sqnorm, out, TransformMode::kRelaxed);
    for (std::size_t j = 0; j < n; ++j) {
      const double arg = detail::rbf_exp_arg(rbf.gamma, x_sqnorm, sq_norms[j],
                                             dots[j]);
      ASSERT_LE(ulp_distance(std::exp(arg), out[j]), 4u)
          << "backend=" << backend << " j=" << j;
    }
    std::copy(dots.begin(), dots.end(), out.begin());
    kernel_transform(sig, sq_norms, x_sqnorm, out, TransformMode::kRelaxed);
    for (std::size_t j = 0; j < n; ++j) {
      const double arg = detail::affine_arg(sig.gamma, sig.coef0, dots[j]);
      ASSERT_LE(ulp_distance(std::tanh(arg), out[j]), 8u)
          << "backend=" << backend << " j=" << j;
    }
  }
}

/// A relaxed result depends on the value only, not on where it sits in the
/// transformed row: a lane of the vector body and a lane of the tail give
/// the same bits on every backend.  Scoring that gathers kernel values out
/// of one block over a larger matrix (the grid's pair scorer) relies on
/// this to match scoring over a row subset.
TEST(Transform, RelaxedResultIndependentOfPosition) {
  TransformGuard guard;
  util::Rng rng{80};
  const std::size_t n = 1027;  // a full tile, then a 3-element tail
  std::vector<double> dots(n);
  std::vector<double> sq_norms(n);
  for (std::size_t j = 0; j < n; ++j) {
    dots[j] = (rng.uniform() - 0.3) * 30.0;
    sq_norms[j] = rng.uniform() * 40.0;
  }
  const KernelParams rbf{KernelType::kRbf, 0.05, 0.0, 3};
  const KernelParams sig{KernelType::kSigmoid, 0.1, 0.5, 3};
  for (const auto backend : supported_kernel_backends()) {
    set_kernel_backend_for_testing(backend);
    for (const KernelParams& params : {rbf, sig}) {
      std::vector<double> out = dots;
      kernel_transform(params, sq_norms, 17.25, out, TransformMode::kRelaxed);
      for (std::size_t j = 0; j < n; ++j) {
        double alone = dots[j];
        kernel_transform(params, {&sq_norms[j], 1}, 17.25, {&alone, 1},
                         TransformMode::kRelaxed);
        ASSERT_EQ(bits(alone), bits(out[j]))
            << describe(params) << " backend=" << backend << " j=" << j;
      }
    }
  }
}

/// Relaxed is opt-in only, by argument: every entry point defaults to the
/// exact tier, and an exported WTP_TRANSFORM_MODE=relaxed does not reach
/// library code (only the tools read it).
TEST(Transform, RelaxedModeIsOptIn) {
  const RelaxedEnv env;
  util::Rng rng{97};
  std::vector<util::SparseVector> rows;
  for (std::size_t i = 0; i < 40; ++i) {
    rows.push_back(vec2(rng.uniform() * 3.0, rng.uniform() * 3.0));
  }
  const auto matrix = util::FeatureMatrix::from_rows(
      std::span<const util::SparseVector>{rows}, 2);
  const util::SparseVector& x = rows.front();
  const auto query = KernelQueries::row(x, x.squared_norm());
  std::vector<double> by_default(rows.size());
  std::vector<double> exact(rows.size());
  std::vector<double> relaxed(rows.size());
  for (const KernelParams& params : all_kernels()) {
    kernel_block(params, kernel_matrix(matrix), query, by_default);
    kernel_block(params, kernel_matrix(matrix), query, exact,
                 TransformMode::kExact);
    kernel_block(params, kernel_matrix(matrix), query, relaxed,
                 TransformMode::kRelaxed);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const double oracle = kernel_eval(params, x, rows[r]);
      EXPECT_EQ(bits(oracle), bits(by_default[r])) << describe(params);
      EXPECT_EQ(bits(oracle), bits(exact[r])) << describe(params);
      EXPECT_LE(ulp_distance(oracle, relaxed[r]), 8u) << describe(params);
    }
  }
  EXPECT_EQ(to_string(TransformMode::kRelaxed), "relaxed");
  EXPECT_EQ(parse_transform_mode("relaxed"), TransformMode::kRelaxed);
  EXPECT_EQ(parse_transform_mode("EXACT"), TransformMode::kExact);
  EXPECT_THROW((void)parse_transform_mode("fast"), std::runtime_error);
  EXPECT_THROW((void)parse_transform_mode("default"), std::runtime_error);
}

/// The tier is not part of the kernel's identity: KernelParams holds
/// exactly the four math fields (the structured binding only compiles for
/// four), and equality covers each of them.
TEST(Transform, ModeExcludedFromParamsEquality) {
  const KernelParams a{KernelType::kRbf, 0.25, 1.0, 3};
  const auto [type, gamma, coef0, degree] = a;
  EXPECT_EQ(a, (KernelParams{type, gamma, coef0, degree}));
  KernelParams b = a;
  b.type = KernelType::kSigmoid;
  EXPECT_NE(a, b);
  b = a;
  b.gamma = 0.5;
  EXPECT_NE(a, b);
  b = a;
  b.coef0 = 0.0;
  EXPECT_NE(a, b);
  b = a;
  b.degree = 2;
  EXPECT_NE(a, b);
}

/// Training has no tier input: an exported WTP_TRANSFORM_MODE=relaxed
/// leaves support vectors, coefficients and rho bit-identical.
TEST(Transform, TrainingPinnedToExactTier) {
  util::Rng rng{31337};
  std::vector<util::SparseVector> data;
  for (std::size_t i = 0; i < 60; ++i) {
    std::vector<util::SparseVector::Entry> entries;
    entries.push_back({0, rng.uniform() * 2.0});
    entries.push_back({1, rng.uniform() * 2.0 + 1.0});
    entries.push_back({2 + rng.uniform_index(20), 1.0});
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.index < b.index; });
    data.emplace_back(std::move(entries));
  }
  SvmConfig config;
  config.regularizer = 0.3;
  config.kernel = {KernelType::kRbf, 0.1, 0.0, 3};
  const auto exact = SvmModel::train(
      SvmKind::kOcSvm, util::FeatureMatrix::from_rows(data), config, 22);
  const auto under_env = [&] {
    const RelaxedEnv env;
    return SvmModel::train(
        SvmKind::kOcSvm, util::FeatureMatrix::from_rows(data), config, 22);
  }();
  ASSERT_EQ(exact.coefficients().size(), under_env.coefficients().size());
  for (std::size_t i = 0; i < exact.coefficients().size(); ++i) {
    EXPECT_EQ(bits(exact.coefficients()[i]), bits(under_env.coefficients()[i]));
  }
  EXPECT_EQ(bits(exact.scalar0()), bits(under_env.scalar0()));
  EXPECT_EQ(exact.support_vectors().rows(), under_env.support_vectors().rows());
}

/// End-to-end sanity for the relaxed tier on decision functions: values
/// move by at most a hair, accept/reject never flips on clearly-signed
/// windows.  (The bench asserts the stronger zero-argmax-flip property on
/// the paper-shape replay.)
TEST(Transform, RelaxedDecisionValuesStayClose) {
  util::Rng rng{424242};
  std::vector<util::SparseVector> data;
  for (std::size_t i = 0; i < 50; ++i) {
    std::vector<util::SparseVector::Entry> entries;
    entries.push_back({0, rng.uniform()});
    entries.push_back({1 + rng.uniform_index(30), 1.0});
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.index < b.index; });
    data.emplace_back(std::move(entries));
  }
  SvmConfig config;
  config.regularizer = 0.25;
  config.kernel = {KernelType::kRbf, 0.2, 0.0, 3};
  const auto model = SvmModel::train(
      SvmKind::kOcSvm, util::FeatureMatrix::from_rows(data), config, 31);
  auto queries = util::FeatureMatrix::from_rows(
      std::span<const util::SparseVector>{data}, 31);
  std::vector<double> exact_out(data.size());
  std::vector<double> relaxed_out(data.size());
  model.decision_values(queries, exact_out);
  model.decision_values(queries, relaxed_out, TransformMode::kRelaxed);
  for (std::size_t i = 0; i < data.size(); ++i) {
    // Coefficients sum to nu*l; 4 ULP of each kernel value keeps the
    // decision within ~1e-14 of exact at this scale.
    EXPECT_NEAR(exact_out[i], relaxed_out[i], 1e-12) << i;
  }
}

}  // namespace
}  // namespace wtp::svm
