#include "svm/kernel_cache.h"

#include <gtest/gtest.h>

#include "svm/smo_solver.h"
#include "util/feature_matrix.h"
#include "util/sparse_vector.h"

namespace wtp::svm {
namespace {

/// fill callback that writes row[i][j] = i * 100 + j and counts invocations.
struct CountingFiller {
  std::size_t calls = 0;
  std::function<void(std::size_t, std::span<float>)> fn() {
    return [this](std::size_t i, std::span<float> out) {
      ++calls;
      for (std::size_t j = 0; j < out.size(); ++j) {
        out[j] = static_cast<float>(i * 100 + j);
      }
    };
  }
};

TEST(KernelCache, ComputesRowOnFirstAccess) {
  KernelCache cache{4, 1 << 20};
  CountingFiller filler;
  const auto row = cache.get(2, filler.fn());
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[0], 200.0f);
  EXPECT_EQ(row[3], 203.0f);
  EXPECT_EQ(filler.calls, 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(KernelCache, SecondAccessHitsCache) {
  KernelCache cache{4, 1 << 20};
  CountingFiller filler;
  (void)cache.get(1, filler.fn());
  (void)cache.get(1, filler.fn());
  EXPECT_EQ(filler.calls, 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(KernelCache, EvictsLeastRecentlyUsed) {
  // Budget for exactly 2 rows of 4 floats.
  KernelCache cache{4, 2 * 4 * sizeof(float)};
  CountingFiller filler;
  (void)cache.get(0, filler.fn());
  (void)cache.get(1, filler.fn());
  (void)cache.get(0, filler.fn());  // refresh row 0
  (void)cache.get(2, filler.fn());  // evicts row 1 (LRU)
  EXPECT_EQ(filler.calls, 3u);
  (void)cache.get(0, filler.fn());  // still cached
  EXPECT_EQ(filler.calls, 3u);
  (void)cache.get(1, filler.fn());  // was evicted: recomputed
  EXPECT_EQ(filler.calls, 4u);
}

TEST(KernelCache, TinyBudgetStillCachesTwoRows) {
  KernelCache cache{8, 0};
  CountingFiller filler;
  (void)cache.get(0, filler.fn());
  (void)cache.get(0, filler.fn());
  EXPECT_EQ(filler.calls, 1u);
}

TEST(KernelCache, EvictedRowRecomputesCorrectValues) {
  KernelCache cache{3, 2 * 3 * sizeof(float)};
  CountingFiller filler;
  (void)cache.get(0, filler.fn());
  (void)cache.get(1, filler.fn());
  (void)cache.get(2, filler.fn());
  const auto row0 = cache.get(0, filler.fn());
  EXPECT_EQ(row0[1], 1.0f);
  EXPECT_EQ(row0[2], 2.0f);
}

TEST(KernelCache, BudgetBelowOneRowClampsToTwoSlotsAndStaysCorrect) {
  // 16-float rows = 64 bytes each; a 1-byte budget cannot hold even one.
  // The cache must clamp to its two-slot floor, keep values correct under
  // heavy eviction, and account every access as a hit or a miss.
  constexpr std::size_t kRows = 8;
  KernelCache cache{kRows, 1};
  CountingFiller filler;
  for (std::size_t pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < kRows; ++i) {
      const auto row = cache.get(i, filler.fn());
      ASSERT_EQ(row.size(), kRows);
      EXPECT_EQ(row[0], static_cast<float>(i * 100));
      EXPECT_EQ(row[kRows - 1], static_cast<float>(i * 100 + kRows - 1));
    }
  }
  // Cyclic sweep over 8 rows with 2 slots: every access past the first two
  // misses; immediate re-access is the only way to hit.
  EXPECT_EQ(cache.hits() + cache.misses(), 3 * kRows);
  EXPECT_EQ(cache.misses(), filler.calls);
  EXPECT_GE(cache.misses(), 2 * kRows);
}

TEST(KernelCache, RejectsOutOfRangeRow) {
  KernelCache cache{3, 1 << 20};
  CountingFiller filler;
  EXPECT_THROW((void)cache.get(3, filler.fn()), std::out_of_range);
}

TEST(KernelCache, RejectsZeroRows) {
  EXPECT_THROW((KernelCache{0, 1024}), std::invalid_argument);
}

util::FeatureMatrix gram_test_matrix() {
  std::vector<util::SparseVector> rows;
  rows.emplace_back(std::vector<util::SparseVector::Entry>{{0, 1.0}, {2, 2.0}});
  rows.emplace_back(std::vector<util::SparseVector::Entry>{{1, 3.0}});
  rows.emplace_back(std::vector<util::SparseVector::Entry>{{0, 0.5}, {1, 1.0}, {2, 4.0}});
  rows.emplace_back(std::vector<util::SparseVector::Entry>{{3, 2.0}});
  return util::FeatureMatrix::from_rows(rows, 4);
}

TEST(GramCache, RowsMatchDirectDotProducts) {
  const auto matrix = gram_test_matrix();
  GramCache gram{matrix};
  std::vector<double> cached(matrix.rows());
  std::vector<double> direct(matrix.rows());
  for (std::size_t i = 0; i < matrix.rows(); ++i) {
    gram.row(i, cached);
    matrix.dot_all(i, direct);
    for (std::size_t j = 0; j < matrix.rows(); ++j) {
      EXPECT_EQ(cached[j], direct[j]) << "row " << i << " col " << j;
    }
  }
  // Second sweep hits every row.
  for (std::size_t i = 0; i < matrix.rows(); ++i) gram.row(i, cached);
  EXPECT_EQ(gram.misses(), matrix.rows());
  EXPECT_EQ(gram.hits(), matrix.rows());
}

TEST(GramCache, SharedAcrossKernelsComputesDotsOnce) {
  // Two QMatrix instances over different kernels share one GramCache: the
  // second kernel's rows are pure transforms of already-cached dots.
  const auto matrix = gram_test_matrix();
  const auto gram = std::make_shared<GramCache>(matrix);
  const KernelParams rbf{KernelType::kRbf, 0.5, 0.0, 3};
  const KernelParams poly{KernelType::kPolynomial, 0.5, 1.0, 3};
  QMatrix q_rbf{matrix, rbf, 1.0, 1 << 20, gram};
  QMatrix q_poly{matrix, poly, 1.0, 1 << 20, gram};
  for (std::size_t i = 0; i < matrix.rows(); ++i) {
    (void)q_rbf.row(i);
    (void)q_poly.row(i);
  }
  EXPECT_EQ(gram->misses(), matrix.rows());
  EXPECT_EQ(gram->hits(), matrix.rows());
}

TEST(GramCache, QMatrixRowsIdenticalWithAndWithoutGram) {
  // The gram-backed fill must be bit-identical to the direct kernel_block
  // path for every kernel type (double dots + same scalar transform).
  const auto matrix = gram_test_matrix();
  for (const auto type : {KernelType::kLinear, KernelType::kPolynomial,
                          KernelType::kRbf, KernelType::kSigmoid}) {
    const KernelParams params{type, 0.25, 1.0, 3};
    const auto gram = std::make_shared<GramCache>(matrix);
    QMatrix with{matrix, params, 2.0, 1 << 20, gram};
    QMatrix without{matrix, params, 2.0, 1 << 20};
    for (std::size_t i = 0; i < matrix.rows(); ++i) {
      const auto a = with.row(i);
      const auto b = without.row(i);
      for (std::size_t j = 0; j < matrix.rows(); ++j) {
        EXPECT_EQ(a[j], b[j]) << "kernel " << static_cast<int>(type)
                              << " row " << i << " col " << j;
      }
    }
  }
}

TEST(GramCache, RejectsMismatchedMatrix) {
  const auto matrix = gram_test_matrix();
  const auto other = gram_test_matrix();
  const auto gram = std::make_shared<GramCache>(other);
  const KernelParams params{KernelType::kLinear, 0.5, 0.0, 3};
  EXPECT_THROW((QMatrix{matrix, params, 1.0, 1 << 20, gram}),
               std::invalid_argument);
}

TEST(GramCache, EvictsUnderTightBudgetAndStaysCorrect) {
  const auto matrix = gram_test_matrix();
  GramCache gram{matrix, /*budget_bytes=*/1};  // clamps to two slots
  std::vector<double> cached(matrix.rows());
  std::vector<double> direct(matrix.rows());
  for (std::size_t pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < matrix.rows(); ++i) {
      gram.row(i, cached);
      matrix.dot_all(i, direct);
      for (std::size_t j = 0; j < matrix.rows(); ++j) {
        EXPECT_EQ(cached[j], direct[j]);
      }
    }
  }
  EXPECT_GE(gram.misses(), 2 * matrix.rows());
}

TEST(GramCache, RejectsEmptyMatrixAndOutOfRangeRow) {
  EXPECT_THROW((GramCache{util::FeatureMatrix{}}), std::invalid_argument);
  const auto matrix = gram_test_matrix();
  GramCache gram{matrix};
  std::vector<double> out(matrix.rows());
  EXPECT_THROW(gram.row(matrix.rows(), out), std::out_of_range);
}

}  // namespace
}  // namespace wtp::svm
