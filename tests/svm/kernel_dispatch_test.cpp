// Backend dispatch seam (DESIGN §11): every SIMD backend the host supports
// must produce decision values bit-identical to the scalar reference, which
// itself must match the CSR oracle bit for bit.  These tests sweep layouts
// chosen to hit every combine path: the vectorized contiguous-columns
// prefix, the specialized first-word loop, the generic replay, and the
// chunked add_ones escalation for large trailing popcounts.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "svm/kernel.h"
#include "util/feature_matrix.h"
#include "util/rng.h"
#include "util/sparse_vector.h"

namespace wtp::svm {
namespace {

// Restores the env-selected backend no matter how a test exits.
struct BackendGuard {
  ~BackendGuard() { set_kernel_backend_for_testing(""); }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Binary-dominant rows over `dim` columns: exact-1.0 bits everywhere except
/// the `numeric_cols`, which carry the supplied values (possibly negative,
/// tiny, or huge — the combine must replay the oracle's rounding exactly).
std::vector<util::SparseVector> make_rows(util::Rng& rng, std::size_t count,
                                          std::size_t dim, std::size_t nnz,
                                          std::span<const std::uint32_t> ncols,
                                          double numeric_scale) {
  std::vector<util::SparseVector> out;
  const auto is_numeric = [&ncols](std::size_t c) {
    for (const std::uint32_t n : ncols) {
      if (c == n) return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < count; ++i) {
    std::set<std::size_t> cols;
    while (cols.size() < nnz) {
      const std::size_t c = rng.uniform_index(dim);
      if (!is_numeric(c)) cols.insert(c);
    }
    std::vector<util::SparseVector::Entry> entries;
    for (const std::size_t c : cols) entries.push_back({c, 1.0});
    for (const std::uint32_t c : ncols) {
      if (rng.uniform() < 0.25) continue;  // field absent
      entries.push_back({c, (rng.uniform() - 0.4) * numeric_scale});
    }
    out.emplace_back(std::move(entries));
  }
  return out;
}

struct Shape {
  const char* name;
  std::size_t dim;
  std::size_t nnz;
  std::vector<std::uint32_t> ncols;
  double numeric_scale;
};

/// Layout sweep: each shape forces a different combine strategy.
std::vector<Shape> shapes() {
  return {
      // Paper schema: three consecutive numeric columns in word 0 — the
      // AVX-512 vectorized prefix path.
      {"paper", 843, 25, {6, 7, 8}, 1.0},
      // Dense rows: trailing AND-popcounts above the pad budget exercise
      // the chunked add_ones escalation per lane.
      {"dense", 843, 300, {6, 7, 8}, 1.0},
      // Huge numeric magnitudes: sums cross binades mid-replay, so the
      // integer-domain walk's round-half-even must match the oracle.
      {"binade", 843, 200, {6, 7, 8}, 0x1p50},
      // Scattered first-word columns: specialized loop, non-trivial middle
      // segments (p1 != p0), no vector prefix.
      {"scattered", 843, 25, {3, 40, 63}, 1.0},
      // A numeric column outside word 0: the generic span-walking replay.
      {"wide", 843, 25, {6, 7, 500}, 1.0},
      // Two numeric columns only: generic row loop (k_count != 3).
      {"pair", 128, 12, {5, 90}, 1.0},
      // Column count not a multiple of 64, plus a single-word layout.
      {"ragged", 65, 9, {0, 1, 2}, 1.0},
      {"oneword", 40, 7, {6, 7, 8}, 1.0},
  };
}

TEST(KernelDispatch, ScalarAlwaysSupported) {
  const auto names = supported_kernel_backends();
  ASSERT_FALSE(names.empty());
  bool has_scalar = false;
  for (const auto name : names) has_scalar |= (name == "scalar");
  EXPECT_TRUE(has_scalar);
}

TEST(KernelDispatch, UnknownBackendThrows) {
  BackendGuard guard;
  EXPECT_THROW(set_kernel_backend_for_testing("avx1024"), std::runtime_error);
}

TEST(KernelDispatch, CsrSentinelDisablesBitsetPlane) {
  BackendGuard guard;
  set_kernel_backend_for_testing("csr");
  EXPECT_EQ(kernel_dispatch(), nullptr);
  EXPECT_EQ(kernel_backend_name(), "csr");
  set_kernel_backend_for_testing("");
  // Back to the environment's choice, which may itself be csr.
  const char* env = std::getenv("WTP_KERNEL_BACKEND");
  const std::string_view requested = env == nullptr ? "" : env;
  const bool env_disables = requested == "csr" || requested == "none" ||
                            requested == "off";
  EXPECT_EQ(kernel_dispatch() == nullptr, env_disables);
}

/// Every supported backend vs the CSR oracle, bit for bit, on every layout
/// and kernel type.  The oracle rows come from the same kernel_block call
/// with the bitset plane disabled.
TEST(KernelDispatch, AllBackendsBitIdenticalToCsrOracle) {
  BackendGuard guard;
  util::Rng rng{271};
  for (const auto& shape : shapes()) {
    auto rows = make_rows(rng, 64, shape.dim, shape.nnz, shape.ncols,
                          shape.numeric_scale);
    auto queries = make_rows(rng, 16, shape.dim, shape.nnz, shape.ncols,
                             shape.numeric_scale);
    auto matrix = util::FeatureMatrix::from_rows(rows, shape.dim);
    matrix.ensure_bitset(shape.ncols);
    ASSERT_TRUE(matrix.bitset()) << shape.name;

    const KernelParams params{KernelType::kLinear, 1.0, 0.0, 3};
    std::vector<double> oracle(rows.size());
    std::vector<double> got(rows.size());
    for (const auto backend : supported_kernel_backends()) {
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const double sqn = queries[q].squared_norm();
        set_kernel_backend_for_testing("csr");
        kernel_block(params, kernel_matrix(matrix),
                     KernelQueries::row(queries[q], sqn), oracle);
        set_kernel_backend_for_testing(backend);
        kernel_block(params, kernel_matrix(matrix),
                     KernelQueries::row(queries[q], sqn), got);
        for (std::size_t r = 0; r < rows.size(); ++r) {
          ASSERT_EQ(bits(oracle[r]), bits(got[r]))
              << shape.name << " backend=" << backend << " q=" << q
              << " row=" << r << " oracle=" << oracle[r] << " got=" << got[r];
        }
      }
    }
  }
}

/// The transformed kernels reuse the same dots, but sweep them anyway: a
/// backend divergence inside the transform would be a dispatch bug.
TEST(KernelDispatch, TransformedKernelsBitIdenticalAcrossBackends) {
  BackendGuard guard;
  util::Rng rng{83};
  const std::vector<std::uint32_t> ncols{6, 7, 8};
  auto rows = make_rows(rng, 48, 843, 25, ncols, 1.0);
  auto queries = make_rows(rng, 8, 843, 25, ncols, 1.0);
  auto matrix = util::FeatureMatrix::from_rows(rows, 843);
  matrix.ensure_bitset(ncols);
  ASSERT_TRUE(matrix.bitset());

  const KernelParams kernels[] = {
      {KernelType::kLinear, 1.0, 0.0, 3},
      {KernelType::kPolynomial, 0.5, 1.0, 3},
      {KernelType::kRbf, 1.0 / 843.0, 0.0, 3},
      {KernelType::kSigmoid, 0.1, 0.5, 3},
  };
  std::vector<double> scalar_out(rows.size());
  std::vector<double> backend_out(rows.size());
  for (const auto& params : kernels) {
    for (const auto backend : supported_kernel_backends()) {
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const double sqn = queries[q].squared_norm();
        set_kernel_backend_for_testing("scalar");
        kernel_block(params, kernel_matrix(matrix),
                     KernelQueries::row(queries[q], sqn), scalar_out);
        set_kernel_backend_for_testing(backend);
        kernel_block(params, kernel_matrix(matrix),
                     KernelQueries::row(queries[q], sqn), backend_out);
        for (std::size_t r = 0; r < rows.size(); ++r) {
          ASSERT_EQ(bits(scalar_out[r]), bits(backend_out[r]))
              << describe(params) << " backend=" << backend << " q=" << q
              << " row=" << r;
        }
      }
    }
  }
}

/// A block of queries must equal per-query blocks of one exactly on every
/// backend —
/// the batched path is a routing change, never a numeric one.
TEST(KernelDispatch, KernelBlockMatchesPerQueryRows) {
  BackendGuard guard;
  util::Rng rng{907};
  const std::vector<std::uint32_t> ncols{6, 7, 8};
  auto rows = make_rows(rng, 40, 843, 25, ncols, 1.0);
  auto query_rows = make_rows(rng, 9, 843, 25, ncols, 1.0);
  auto matrix = util::FeatureMatrix::from_rows(rows, 843);
  matrix.ensure_bitset(ncols);
  auto queries = util::FeatureMatrix::from_rows(query_rows, 843);
  queries.ensure_bitset(ncols);

  const KernelParams params{KernelType::kPolynomial, 0.5, 1.0, 3};
  std::vector<double> block(query_rows.size() * rows.size());
  std::vector<double> row_out(rows.size());
  for (const auto backend : supported_kernel_backends()) {
    set_kernel_backend_for_testing(backend);
    const KernelMatrix operand = kernel_matrix(matrix);
    kernel_block(params, operand,
                 KernelQueries::rows(kernel_matrix(queries), 0, queries.rows()),
                 block);
    for (std::size_t q = 0; q < query_rows.size(); ++q) {
      kernel_block(params, operand,
                   KernelQueries::row(query_rows[q], query_rows[q].squared_norm()),
                   row_out);
      for (std::size_t r = 0; r < rows.size(); ++r) {
        ASSERT_EQ(bits(block[q * rows.size() + r]), bits(row_out[r]))
            << "backend=" << backend << " q=" << q << " row=" << r;
      }
    }
  }
}

/// The entry point checks the out shape before it writes: a one-query block
/// into a span one short must throw and leave every element untouched, on
/// every backend and with the bitset plane disabled.
TEST(KernelDispatch, OneQueryBlockRejectsShortOutBeforeWriting) {
  BackendGuard guard;
  util::Rng rng{4242};
  const std::vector<std::uint32_t> ncols{6, 7, 8};
  auto rows = make_rows(rng, 24, 843, 25, ncols, 1.0);
  const auto query = make_rows(rng, 1, 843, 25, ncols, 1.0).front();
  auto matrix = util::FeatureMatrix::from_rows(rows, 843);
  matrix.ensure_bitset(ncols);
  const KernelParams params{KernelType::kRbf, 1.0 / 843.0, 0.0, 3};
  constexpr double kSentinel = -12345.0;
  std::vector<std::string_view> backends = supported_kernel_backends();
  backends.push_back("csr");
  for (const auto backend : backends) {
    set_kernel_backend_for_testing(backend);
    const KernelMatrix operand = kernel_matrix(matrix);
    std::vector<double> out(rows.size() - 1, kSentinel);
    EXPECT_THROW(kernel_block(params, operand,
                              KernelQueries::row(query, query.squared_norm()),
                              out),
                 std::invalid_argument)
        << backend;
    EXPECT_THROW(dot_block(operand, KernelQueries::rows(operand, 0, 1), out),
                 std::invalid_argument)
        << backend;
    for (const double v : out) ASSERT_EQ(v, kSentinel) << backend;
  }
}

/// The transform tail in isolation, across sizes that exercise every lane
/// and tile boundary: full 4/8-lane vectors, scalar/masked tails of every
/// length, and rows crossing the 1024-element transform tile.  Row norms
/// alone drive kernel_transform directly so the dots are controlled inputs,
/// not products of the bitset plane.
TEST(KernelDispatch, TransformTailBitIdenticalOnAllBackends) {
  BackendGuard guard;
  util::Rng rng{5861};
  const KernelParams kernels[] = {
      {KernelType::kLinear, 1.0, 0.0, 3},
      {KernelType::kPolynomial, 0.5, 1.0, 3},
      {KernelType::kPolynomial, 0.37, -0.25, 7},
      {KernelType::kRbf, 1.0 / 843.0, 0.0, 3},
      {KernelType::kSigmoid, 0.1, 0.5, 3},
  };
  const std::size_t sizes[] = {1, 3, 4, 5, 7, 8, 9, 15, 16, 63, 64, 65, 100,
                               1023, 1024, 1025, 2500};
  for (const std::size_t n : sizes) {
    std::vector<double> dots(n);
    std::vector<double> sq_norms(n);
    for (std::size_t j = 0; j < n; ++j) {
      dots[j] = (rng.uniform() - 0.3) * 30.0;
      sq_norms[j] = rng.uniform() * 40.0;
    }
    const double x_sqnorm = 21.5;
    std::vector<double> scalar_out(n);
    std::vector<double> backend_out(n);
    for (const auto& params : kernels) {
      set_kernel_backend_for_testing("scalar");
      std::copy(dots.begin(), dots.end(), scalar_out.begin());
      kernel_transform(params, sq_norms, x_sqnorm, scalar_out);
      for (const auto backend : supported_kernel_backends()) {
        set_kernel_backend_for_testing(backend);
        std::copy(dots.begin(), dots.end(), backend_out.begin());
        kernel_transform(params, sq_norms, x_sqnorm, backend_out);
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(bits(scalar_out[j]), bits(backend_out[j]))
              << describe(params) << " backend=" << backend << " n=" << n
              << " j=" << j << " scalar=" << scalar_out[j]
              << " got=" << backend_out[j];
        }
      }
    }
  }
}

/// The transform backend follows the bitset backend override: same-named
/// where one exists, scalar for the rest ("popcnt", "csr").
TEST(KernelDispatch, TransformBackendFollowsOverride) {
  BackendGuard guard;
  for (const auto backend : supported_kernel_backends()) {
    set_kernel_backend_for_testing(backend);
    if (backend == "avx512" || backend == "avx2") {
      EXPECT_EQ(transform_backend_name(), backend);
    } else {
      EXPECT_EQ(transform_backend_name(), "scalar") << backend;
    }
  }
  set_kernel_backend_for_testing("csr");
  EXPECT_EQ(transform_backend_name(), "scalar");
}

/// Adversarial trailing popcounts: rows whose sums sit exactly on binade
/// boundaries when the pad/chunk decision flips (n <= 4 vs the walk), with
/// negative and subnormal-adjacent numeric values in the mix.
TEST(KernelDispatch, AddOnesEscalationMatchesOracle) {
  BackendGuard guard;
  util::Rng rng{409};
  const std::vector<std::uint32_t> ncols{6, 7, 8};
  // Values chosen so replay sums land near powers of two: the crossing add
  // must round half-to-even identically to the literal loop.
  const double specials[] = {0.5,     -0.5,    0x1p-30, -0x1p-30, 3.0,
                             0x1p52,  -0x1p52, 255.75,  1e-300,   7.0 / 3.0};
  std::vector<util::SparseVector> rows;
  std::size_t which = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    std::vector<util::SparseVector::Entry> entries;
    std::set<std::size_t> cols;
    const std::size_t nnz = 1 + rng.uniform_index(500);
    while (cols.size() < nnz) {
      const std::size_t c = rng.uniform_index(843);
      if (c < 6 || c > 8) cols.insert(c);
    }
    for (const std::size_t c : cols) entries.push_back({c, 1.0});
    for (const std::uint32_t c : ncols) {
      entries.push_back({c, specials[which++ % std::size(specials)]});
    }
    rows.emplace_back(std::move(entries));
  }
  auto matrix = util::FeatureMatrix::from_rows(rows, 843);
  matrix.ensure_bitset(ncols);
  ASSERT_TRUE(matrix.bitset());

  auto queries = make_rows(rng, 12, 843, 400, ncols, 1.0);
  const KernelParams params{KernelType::kLinear, 1.0, 0.0, 3};
  std::vector<double> oracle(rows.size());
  std::vector<double> got(rows.size());
  for (const auto backend : supported_kernel_backends()) {
    for (const auto& query : queries) {
      const double sqn = query.squared_norm();
      set_kernel_backend_for_testing("csr");
      kernel_block(params, kernel_matrix(matrix),
                     KernelQueries::row(query, sqn), oracle);
      set_kernel_backend_for_testing(backend);
      kernel_block(params, kernel_matrix(matrix),
                     KernelQueries::row(query, sqn), got);
      for (std::size_t r = 0; r < rows.size(); ++r) {
        ASSERT_EQ(bits(oracle[r]), bits(got[r]))
            << "backend=" << backend << " row=" << r << " oracle=" << oracle[r]
            << " got=" << got[r];
      }
    }
  }
}

/// The rows a bitset decodes to are the rows it was built from, on every
/// layout of the sweep: the decoder behind every CSR read of a
/// bitset-stored matrix (svm/model_io.h v3) loses nothing.
TEST(KernelDispatch, DecodedRowsMatchOriginalRows) {
  util::Rng rng{6151};
  for (const auto& shape : shapes()) {
    auto rows = make_rows(rng, 48, shape.dim, shape.nnz, shape.ncols,
                          shape.numeric_scale);
    rows.emplace_back();  // an empty row decodes to an empty row
    const auto matrix = util::FeatureMatrix::from_rows(rows, shape.dim);
    for (const auto& layout :
         {std::span<const std::uint32_t>{}, std::span{shape.ncols}}) {
      const auto storage = util::BitsetStorage::build(matrix.view(), layout);
      ASSERT_TRUE(storage) << shape.name;
      util::DecodedRows decoded;
      decoded.decode(storage->view());
      const util::CsrView got = decoded.view(matrix.cols(), matrix.sq_norms());
      ASSERT_EQ(got.rows(), matrix.rows()) << shape.name;
      for (std::size_t r = 0; r < matrix.rows(); ++r) {
        ASSERT_TRUE(std::ranges::equal(got.row_indices(r), matrix.row_indices(r)))
            << shape.name << " row=" << r;
        const auto want = matrix.row_values(r);
        const auto have = got.row_values(r);
        for (std::size_t k = 0; k < want.size(); ++k) {
          ASSERT_EQ(bits(have[k]), bits(want[k])) << shape.name << " row=" << r;
        }
      }
    }
  }
}

/// A bitset-only matrix — no CSR rows, as a mapped v3 blob serves it —
/// scored on every backend, and with the plane off, against the CSR oracle
/// of the rows it was built from.  The query set includes non-conforming
/// queries (2.0 at a binary column), so the decode fallback runs on the
/// single-query and the blocked path alike.
TEST(KernelDispatch, BitsetOnlyMatrixMatchesCsrOracle) {
  BackendGuard guard;
  util::Rng rng{7321};
  const std::vector<std::uint32_t> ncols{6, 7, 8};
  const auto rows = make_rows(rng, 40, 843, 25, ncols, 1.0);
  auto query_rows = make_rows(rng, 8, 843, 25, ncols, 1.0);
  for (std::size_t q = 0; q < query_rows.size(); q += 3) {
    const auto original = query_rows[q].entries();
    std::vector<util::SparseVector::Entry> entries{original.begin(),
                                                   original.end()};
    for (auto& entry : entries) {
      if (entry.value == 1.0) {
        entry.value = 2.0;  // a binary column holding 2.0: not conforming
        break;
      }
    }
    query_rows[q] = util::SparseVector{std::move(entries)};
  }
  const auto oracle_matrix = util::FeatureMatrix::from_rows(rows, 843);
  const auto storage = util::BitsetStorage::build(oracle_matrix.view(), ncols);
  ASSERT_TRUE(storage);
  const KernelMatrix bitset_only{
      util::CsrView{843, {}, {}, {}, oracle_matrix.sq_norms()}, storage->view()};
  ASSERT_FALSE(bitset_only.has_rows());
  const auto queries = util::FeatureMatrix::from_rows(query_rows, 843);
  const std::size_t n = rows.size();

  const KernelParams kernels[] = {
      {KernelType::kLinear, 1.0, 0.0, 3},
      {KernelType::kRbf, 1.0 / 843.0, 0.0, 3},
  };
  std::vector<std::string_view> backends = supported_kernel_backends();
  backends.push_back("csr");
  std::vector<double> oracle(query_rows.size() * n);
  std::vector<double> block(query_rows.size() * n);
  std::vector<double> row_out(n);
  for (const auto& params : kernels) {
    for (std::size_t q = 0; q < query_rows.size(); ++q) {
      for (std::size_t r = 0; r < n; ++r) {
        oracle[q * n + r] = kernel_eval(params, query_rows[q], rows[r],
                                        query_rows[q].squared_norm(),
                                        oracle_matrix.sq_norm(r));
      }
    }
    for (const auto backend : backends) {
      set_kernel_backend_for_testing(backend);
      kernel_block(params, bitset_only,
                   KernelQueries::rows(KernelMatrix{queries.view(), std::nullopt},
                                       0, queries.rows()),
                   block);
      for (std::size_t q = 0; q < query_rows.size(); ++q) {
        kernel_block(params, bitset_only,
                     KernelQueries::row(query_rows[q],
                                        query_rows[q].squared_norm()),
                     row_out);
        for (std::size_t r = 0; r < n; ++r) {
          ASSERT_EQ(bits(row_out[r]), bits(oracle[q * n + r]))
              << describe(params) << " backend=" << backend << " q=" << q
              << " row=" << r;
          ASSERT_EQ(bits(block[q * n + r]), bits(oracle[q * n + r]))
              << describe(params) << " backend=" << backend << " q=" << q
              << " row=" << r << " (block)";
        }
      }
    }
  }
}

}  // namespace
}  // namespace wtp::svm
