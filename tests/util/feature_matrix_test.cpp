#include "util/feature_matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/bitset_view.h"
#include "util/sparse_vector.h"

namespace wtp::util {
namespace {

std::vector<SparseVector> sample_rows() {
  return {
      SparseVector{{0, 1.0}, {2, -2.0}, {5, 0.5}},
      SparseVector{},  // empty row
      SparseVector{{1, 3.0}},
      SparseVector{{0, -1.0}, {5, 4.0}},
  };
}

TEST(FeatureMatrix, DefaultConstructedIsEmpty) {
  const FeatureMatrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(FeatureMatrix, FromRowsPreservesLayout) {
  const auto rows = sample_rows();
  const auto m = FeatureMatrix::from_rows(rows);
  ASSERT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 6u);  // deduced: max index 5 -> 6 columns
  EXPECT_EQ(m.nnz(), 6u);
  EXPECT_FALSE(m.empty());

  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto indices = m.row_indices(i);
    const auto values = m.row_values(i);
    ASSERT_EQ(indices.size(), rows[i].nnz());
    ASSERT_EQ(values.size(), rows[i].nnz());
    const auto entries = rows[i].entries();
    for (std::size_t k = 0; k < entries.size(); ++k) {
      EXPECT_EQ(indices[k], entries[k].index);
      EXPECT_EQ(values[k], entries[k].value);
    }
  }
}

TEST(FeatureMatrix, EmptyRowsAreKept) {
  const std::vector<SparseVector> rows{SparseVector{}, SparseVector{{3, 2.0}},
                                       SparseVector{}};
  const auto m = FeatureMatrix::from_rows(rows);
  ASSERT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.row_nnz(0), 0u);
  EXPECT_EQ(m.row_nnz(1), 1u);
  EXPECT_EQ(m.row_nnz(2), 0u);
  EXPECT_EQ(m.sq_norm(0), 0.0);
  EXPECT_EQ(m.sq_norm(2), 0.0);
  EXPECT_TRUE(m.row_vector(0).empty());
}

TEST(FeatureMatrix, SqNormsMatchSparseVectorExactly) {
  const auto rows = sample_rows();
  const auto m = FeatureMatrix::from_rows(rows);
  ASSERT_EQ(m.sq_norms().size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    // Bit-exact: the builder accumulates in entry order, matching
    // SparseVector::squared_norm's iteration order.
    EXPECT_EQ(m.sq_norm(i), rows[i].squared_norm());
  }
}

TEST(FeatureMatrix, RowVectorRoundTrips) {
  const auto rows = sample_rows();
  const auto m = FeatureMatrix::from_rows(rows);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(m.row_vector(i), rows[i]);
  }
}

TEST(FeatureMatrix, ExplicitColsValidated) {
  const std::vector<SparseVector> rows{SparseVector{{7, 1.0}}};
  const auto m = FeatureMatrix::from_rows(rows, 10);
  EXPECT_EQ(m.cols(), 10u);
  EXPECT_THROW((void)FeatureMatrix::from_rows(rows, 7), std::invalid_argument);
}

TEST(FeatureMatrix, DotAllMatchesSparseDotExactly) {
  const auto rows = sample_rows();
  const auto m = FeatureMatrix::from_rows(rows);
  const SparseVector query{{0, 2.0}, {2, 1.5}, {4, -1.0}, {5, 3.0}};
  const auto q = FeatureMatrix::from_rows(std::span{&query, 1});
  std::vector<double> dots(m.rows());
  m.dot_all(q.row_indices(0), q.row_values(0), dots);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(dots[i], rows[i].dot(query));
  }
}

TEST(FeatureMatrix, DotAllRowQueryMatchesSparseDot) {
  const auto rows = sample_rows();
  const auto m = FeatureMatrix::from_rows(rows);
  std::vector<double> dots(m.rows());
  for (std::size_t q = 0; q < rows.size(); ++q) {
    m.dot_all(q, dots);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(dots[i], rows[i].dot(rows[q])) << "q=" << q << " i=" << i;
    }
  }
}

TEST(FeatureMatrix, DotAllIgnoresQueryIndicesBeyondCols) {
  // A query from a wider feature space: indices >= cols() contribute zero
  // products against every row and must be skipped, not crash.
  const std::vector<SparseVector> rows{SparseVector{{0, 1.0}, {1, 2.0}}};
  const auto m = FeatureMatrix::from_rows(rows);  // cols == 2
  const auto query = FeatureMatrix::from_rows(
      std::vector<SparseVector>{SparseVector{{0, 3.0}, {9, 4.0}}});
  std::vector<double> dots(1);
  m.dot_all(query.row_indices(0), query.row_values(0), dots);
  EXPECT_EQ(dots[0], 3.0);
}

TEST(FeatureMatrix, CopyRowDenseMatchesToDense) {
  const auto rows = sample_rows();
  const auto m = FeatureMatrix::from_rows(rows, 8);
  std::vector<double> dense(8, -7.0);  // poison: must be fully overwritten
  for (std::size_t i = 0; i < rows.size(); ++i) {
    m.copy_row_dense(i, dense);
    EXPECT_EQ(dense, rows[i].to_dense(8));
  }
}

TEST(FeatureMatrix, CopyRowDenseRejectsShortBuffer) {
  const auto m = FeatureMatrix::from_rows(sample_rows(), 8);
  std::vector<double> dense(7);
  EXPECT_THROW(m.copy_row_dense(0, dense), std::invalid_argument);
}

TEST(FeatureMatrix, EqualityComparesFullLayout) {
  const auto rows = sample_rows();
  const auto a = FeatureMatrix::from_rows(rows);
  const auto b = FeatureMatrix::from_rows(rows);
  EXPECT_EQ(a, b);
  const auto wider = FeatureMatrix::from_rows(rows, 10);
  EXPECT_NE(a, wider);
}

/// Every row of `rows` as a query against `m`, one dot_all per row.
std::vector<double> all_dots(const FeatureMatrix& m,
                             const std::vector<SparseVector>& rows) {
  const auto queries = FeatureMatrix::from_rows(rows);
  std::vector<double> dots(rows.size() * m.rows());
  for (std::size_t q = 0; q < rows.size(); ++q) {
    m.dot_all(queries.row_indices(q), queries.row_values(q),
              std::span{dots}.subspan(q * m.rows(), m.rows()));
  }
  return dots;
}

TEST(FeatureMatrix, BorrowedMatchesOwned) {
  const auto rows = sample_rows();
  const FeatureMatrix expected = FeatureMatrix::from_rows(rows);
  auto original = std::make_shared<const FeatureMatrix>(FeatureMatrix::from_rows(rows));
  const std::weak_ptr<const FeatureMatrix> watch = original;

  auto borrowed = std::make_unique<FeatureMatrix>(
      FeatureMatrix::borrow(original->view(), original));
  EXPECT_EQ(*borrowed, *original);
  EXPECT_EQ(borrowed->view().values.data(), original->view().values.data());
  EXPECT_EQ(all_dots(*borrowed, rows), all_dots(*original, rows));
  const std::optional<BitsetView> owned_bits = original->bitset();
  const std::optional<BitsetView> borrowed_bits = borrowed->bitset();
  ASSERT_TRUE(owned_bits);
  ASSERT_TRUE(borrowed_bits);
  EXPECT_TRUE(std::ranges::equal(borrowed_bits->words, owned_bits->words));
  EXPECT_TRUE(std::ranges::equal(borrowed_bits->numeric_values,
                                 owned_bits->numeric_values));

  // Copies and moves keep the borrowed storage alive on their own.
  FeatureMatrix copy = *borrowed;
  FeatureMatrix moved = std::move(*borrowed);
  EXPECT_TRUE(borrowed->empty());
  borrowed.reset();
  original.reset();
  EXPECT_FALSE(watch.expired());
  for (const FeatureMatrix* m : {&copy, &moved}) {
    EXPECT_EQ(*m, expected);
    EXPECT_EQ(all_dots(*m, rows), all_dots(expected, rows));
    ASSERT_TRUE(m->bitset());
  }
  copy = FeatureMatrix{};
  moved = FeatureMatrix{};
  EXPECT_TRUE(watch.expired());
}

TEST(FeatureMatrixBuilder, SumsDuplicateIndicesPerRow) {
  FeatureMatrixBuilder builder;
  builder.add(3, 1.0);
  builder.add(1, 2.0);
  builder.add(3, 4.0);  // duplicate of index 3 -> summed to 5.0
  builder.finish_row();
  const auto m = builder.build();
  ASSERT_EQ(m.rows(), 1u);
  ASSERT_EQ(m.row_nnz(0), 2u);
  EXPECT_EQ(m.row_indices(0)[0], 1u);
  EXPECT_EQ(m.row_values(0)[0], 2.0);
  EXPECT_EQ(m.row_indices(0)[1], 3u);
  EXPECT_EQ(m.row_values(0)[1], 5.0);
}

TEST(FeatureMatrixBuilder, DropsEntriesThatSumToZero) {
  FeatureMatrixBuilder builder;
  builder.add(2, 1.5);
  builder.add(2, -1.5);  // cancels out -> dropped
  builder.add(4, 0.0);   // explicit zero -> dropped
  builder.add(0, 1.0);
  builder.finish_row();
  const auto m = builder.build();
  ASSERT_EQ(m.rows(), 1u);
  ASSERT_EQ(m.row_nnz(0), 1u);
  EXPECT_EQ(m.row_indices(0)[0], 0u);
  EXPECT_EQ(m.row_values(0)[0], 1.0);
  EXPECT_EQ(m.sq_norm(0), 1.0);
}

TEST(FeatureMatrixBuilder, SortsUnsortedInput) {
  FeatureMatrixBuilder builder;
  builder.add(5, 1.0);
  builder.add(0, 2.0);
  builder.add(3, 3.0);
  builder.finish_row();
  const auto m = builder.build();
  ASSERT_EQ(m.row_nnz(0), 3u);
  EXPECT_EQ(m.row_indices(0)[0], 0u);
  EXPECT_EQ(m.row_indices(0)[1], 3u);
  EXPECT_EQ(m.row_indices(0)[2], 5u);
}

TEST(FeatureMatrixBuilder, PendingEntriesSealedByBuild) {
  FeatureMatrixBuilder builder;
  builder.add(1, 1.0);  // no finish_row(): build() seals the pending row
  const auto m = builder.build();
  ASSERT_EQ(m.rows(), 1u);
  EXPECT_EQ(m.row_nnz(0), 1u);
}

TEST(FeatureMatrixBuilder, AddRowMatchesFromRows) {
  const auto rows = sample_rows();
  FeatureMatrixBuilder builder;
  for (const auto& row : rows) builder.add_row(row);
  const auto built = builder.build();
  EXPECT_EQ(built, FeatureMatrix::from_rows(rows));
}

TEST(FeatureMatrixBuilder, ResetsAfterBuild) {
  FeatureMatrixBuilder builder;
  builder.add_row(SparseVector{{0, 1.0}});
  (void)builder.build();
  const auto second = builder.build();
  EXPECT_EQ(second.rows(), 0u);
  EXPECT_TRUE(second.empty());
}

TEST(FeatureMatrixBuilder, EmptyFinishedRowsCount) {
  FeatureMatrixBuilder builder;
  builder.finish_row();
  builder.add(2, 1.0);
  builder.finish_row();
  builder.finish_row();
  const auto m = builder.build();
  ASSERT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.row_nnz(0), 0u);
  EXPECT_EQ(m.row_nnz(1), 1u);
  EXPECT_EQ(m.row_nnz(2), 0u);
}

TEST(FeatureMatrixBuilder, FinishRowNormalizesLikeSparseVector) {
  // Unsorted input; a three-way duplicate whose sum depends on its order
  // ((0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)); an explicit zero and a pair
  // that cancels; an empty row; a row of zeros only.
  const std::vector<std::vector<SparseVector::Entry>> rows{
      {{7, 0.3}, {2, 1.0}, {7, 0.1}, {0, 0.0}, {4, 2.0}, {7, 0.2}, {4, -2.0}},
      {},
      {{9, 0.0}, {3, 0.0}},
      {{5, 0.2}, {5, 0.3}, {5, 0.1}, {1, -1.5}},
  };
  FeatureMatrixBuilder builder;
  for (const auto& row : rows) {
    for (const auto& entry : row) builder.add(entry.index, entry.value);
    builder.finish_row();
  }
  const FeatureMatrix m = builder.build();
  ASSERT_EQ(m.rows(), rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const SparseVector expected{rows[r]};
    const auto indices = m.row_indices(r);
    const auto values = m.row_values(r);
    ASSERT_EQ(indices.size(), expected.nnz()) << "row " << r;
    for (std::size_t k = 0; k < indices.size(); ++k) {
      EXPECT_EQ(indices[k], expected.entries()[k].index) << "row " << r;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(values[k]),
                std::bit_cast<std::uint64_t>(expected.entries()[k].value))
          << "row " << r << " entry " << k;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.sq_norm(r)),
              std::bit_cast<std::uint64_t>(expected.squared_norm()))
        << "row " << r;
  }
  EXPECT_EQ(m.row_nnz(1), 0u);
  EXPECT_EQ(m.row_nnz(2), 0u);

  // finish_row applies the rule to its pending buffer in place, so the
  // buffer's capacity serves the next row.
  for (auto row : rows) {
    const SparseVector::Entry* data = row.data();
    const std::size_t capacity = row.capacity();
    SparseVector::normalize(row);
    EXPECT_EQ(row.data(), data);
    EXPECT_EQ(row.capacity(), capacity);
  }
}

// ------------------------------------------------------ bitset companion --
// Edge cases for the dual representation (DESIGN §11).  Exactness is
// against dot_all, the scalar CSR oracle, using the portable scalar ops;
// SIMD backends are covered by tests/svm/kernel_dispatch_test.

std::uint64_t dot_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Runs every row of `m` as a query against `m` through both planes and
/// requires bit-identical dots.
void expect_bitset_matches_oracle(const FeatureMatrix& m,
                                  const std::vector<SparseVector>& rows) {
  const std::optional<BitsetView> storage = m.bitset();
  ASSERT_TRUE(storage);
  const BitsetView view = *storage;
  std::vector<double> oracle(m.rows());
  std::vector<double> got(m.rows());
  const auto queries = FeatureMatrix::from_rows(rows);
  BitsetQuery query;
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    ASSERT_TRUE(query.encode(view, queries.row_indices(q), queries.row_values(q)));
    m.dot_all(queries.row_indices(q), queries.row_values(q), oracle);
    bitset_dot_rows(view, query, got, scalar_bitset_ops());
    for (std::size_t r = 0; r < m.rows(); ++r) {
      ASSERT_EQ(dot_bits(oracle[r]), dot_bits(got[r])) << "row " << r;
    }
  }
}

TEST(FeatureMatrixBitset, AllZeroRowsDotToZero) {
  const std::vector<SparseVector> rows{SparseVector{}, SparseVector{{3, 1.0}},
                                       SparseVector{}};
  auto m = FeatureMatrix::from_rows(rows, 100);
  const std::uint32_t ncols[] = {6, 7, 8};
  m.ensure_bitset(ncols);
  expect_bitset_matches_oracle(m, rows);
}

TEST(FeatureMatrixBitset, NumericOnlyRowsUseDenseSideOnly) {
  const std::vector<SparseVector> rows{
      SparseVector{{6, 0.25}, {8, -1.5}},
      SparseVector{{7, 1.0}},  // exactly 1.0 in a numeric column is fine
      SparseVector{{6, 1e300}},
  };
  auto m = FeatureMatrix::from_rows(rows, 100);
  const std::uint32_t ncols[] = {6, 7, 8};
  m.ensure_bitset(ncols);
  ASSERT_TRUE(m.bitset());
  const BitsetView view = *m.bitset();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t i = 0; i < view.words_per_row; ++i) {
      EXPECT_EQ(view.row_words(r)[i], 0u) << "row " << r << " word " << i;
    }
  }
  expect_bitset_matches_oracle(m, rows);
}

TEST(FeatureMatrixBitset, RaggedColumnCountsRoundTrip) {
  // cols % 64 covers 0, 1, and a wide remainder; single-row matrices too.
  for (const std::size_t cols : {40UL, 64UL, 65UL, 843UL}) {
    std::vector<SparseVector> rows;
    for (std::size_t r = 0; r < 5; ++r) {
      std::vector<SparseVector::Entry> entries;
      for (std::size_t c = r; c < cols; c += 7) {
        if (c >= 1 && c <= 3) continue;
        entries.push_back({c, 1.0});
      }
      entries.push_back({1, 0.5 + static_cast<double>(r)});
      rows.emplace_back(std::move(entries));
    }
    auto m = FeatureMatrix::from_rows(rows, cols);
    const std::uint32_t ncols[] = {1, 2, 3};
    m.ensure_bitset(ncols);
    ASSERT_TRUE(m.bitset()) << cols;
    EXPECT_EQ(m.bitset()->words_per_row, (cols + 63) / 64);
    expect_bitset_matches_oracle(m, rows);

    const std::vector<SparseVector> one_row{rows[0]};
    auto single = FeatureMatrix::from_rows(one_row, cols);
    single.ensure_bitset(ncols);
    ASSERT_TRUE(single.bitset()) << cols;
    expect_bitset_matches_oracle(single, one_row);
  }
}

TEST(FeatureMatrixBitset, NonConformingRowDisablesPlane) {
  // 2.0 in a hinted-binary column violates the layout: no bitset attaches,
  // and the kernel path falls back to CSR (which is always correct).
  const std::vector<SparseVector> rows{SparseVector{{0, 1.0}, {5, 2.0}}};
  auto m = FeatureMatrix::from_rows(rows, 100);
  const std::uint32_t ncols[] = {6, 7, 8};
  m.ensure_bitset(ncols);
  EXPECT_FALSE(m.bitset());
}

TEST(FeatureMatrixBitset, AutoDetectedLayoutMarksNonUnitColumns) {
  // No hint: any column holding a non-1.0 value anywhere becomes numeric.
  const std::vector<SparseVector> rows{
      SparseVector{{0, 1.0}, {9, 0.75}},
      SparseVector{{0, 1.0}, {17, -2.0}},
  };
  auto m = FeatureMatrix::from_rows(rows, 64);
  m.ensure_bitset({});
  ASSERT_TRUE(m.bitset());
  const BitsetView view = *m.bitset();
  ASSERT_EQ(view.numeric_cols.size(), 2u);
  EXPECT_EQ(view.numeric_cols[0], 9u);
  EXPECT_EQ(view.numeric_cols[1], 17u);
  expect_bitset_matches_oracle(m, rows);
}

TEST(FeatureMatrixBitset, QueryEncodeRejectsNonConformingValues) {
  const std::vector<SparseVector> rows{SparseVector{{0, 1.0}}};
  auto m = FeatureMatrix::from_rows(rows, 100);
  const std::uint32_t ncols[] = {6};
  m.ensure_bitset(ncols);
  ASSERT_TRUE(m.bitset());
  const BitsetView view = *m.bitset();
  const double inf = std::numeric_limits<double>::infinity();
  const auto queries = FeatureMatrix::from_rows(std::vector<SparseVector>{
      SparseVector{{2, 0.5}},               // binary != 1.0
      SparseVector{{6, inf}},               // numeric !finite
      SparseVector{{2, 1.0}, {6, -3.5}}});  // conforming
  BitsetQuery query;
  EXPECT_FALSE(query.encode(view, queries.row_indices(0), queries.row_values(0)));
  EXPECT_FALSE(query.encode(view, queries.row_indices(1), queries.row_values(1)));
  EXPECT_TRUE(query.encode(view, queries.row_indices(2), queries.row_values(2)));
}

TEST(FeatureMatrixBitset, QueryIndicesBeyondColsAreSkipped) {
  // Matches the oracle's bounds guard: out-of-range query indices vanish.
  const std::vector<SparseVector> rows{SparseVector{{0, 1.0}, {63, 1.0}}};
  auto m = FeatureMatrix::from_rows(rows, 64);
  m.ensure_bitset({});
  ASSERT_TRUE(m.bitset());
  const BitsetView view = *m.bitset();
  const auto query = FeatureMatrix::from_rows(std::vector<SparseVector>{
      SparseVector{{0, 1.0}, {63, 1.0}, {64, 123.0}, {200, 5.0}}});
  BitsetQuery encoded;
  ASSERT_TRUE(encoded.encode(view, query.row_indices(0), query.row_values(0)));
  std::vector<double> oracle(1);
  std::vector<double> got(1);
  m.dot_all(query.row_indices(0), query.row_values(0), oracle);
  bitset_dot_rows(view, encoded, got, scalar_bitset_ops());
  EXPECT_EQ(dot_bits(oracle[0]), dot_bits(got[0]));
}

/// Rows with exact-1.0 bag-of-words columns and two numeric columns (3
/// and 70), over 100 columns: the shape of a mapped v3 blob's SV block.
std::vector<SparseVector> binary_rows() {
  return {
      SparseVector{{1, 1.0}, {3, 2.5}, {10, 1.0}, {64, 1.0}, {70, -0.5}},
      SparseVector{{3, 1.0}, {99, 1.0}},
      SparseVector{},
      SparseVector{{0, 1.0}, {63, 1.0}, {70, 4.0}, {71, 1.0}},
  };
}

/// A bitset-stored matrix reads its geometry, norms and bitset from the
/// borrowed block; its CSR rows, decoded on first use, are the rows the
/// block was built from.  It keeps the stored layout: ensure_bitset
/// accepts that layout only.
TEST(FeatureMatrixBitset, BitsetStoredMatrixDecodesRowsOnDemand) {
  const auto rows = binary_rows();
  const FeatureMatrix csr = FeatureMatrix::from_rows(rows, 100);
  const auto storage = BitsetStorage::build(csr.view());
  ASSERT_TRUE(storage);
  ASSERT_EQ(storage->numeric_cols().size(), 2u);
  const FeatureMatrix stored =
      FeatureMatrix::borrow(storage->view(), csr.sq_norms(), nullptr);
  EXPECT_TRUE(stored.bitset_stored());
  EXPECT_EQ(stored.rows(), 4u);
  EXPECT_EQ(stored.cols(), 100u);
  EXPECT_EQ(stored.sq_norms().data(), csr.sq_norms().data());
  EXPECT_EQ(stored.bitset()->words.data(), storage->view().words.data());

  EXPECT_EQ(stored, csr);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(stored.row_vector(r), rows[r]) << r;
  }
  EXPECT_EQ(stored.nnz(), csr.nnz());
  const FeatureMatrix copy = stored;  // shares the decoded rows
  EXPECT_EQ(copy.view().indices.data(), stored.view().indices.data());

  FeatureMatrix relaid = stored;
  relaid.ensure_bitset(storage->numeric_cols());
  EXPECT_TRUE(relaid.bitset_stored());
  const std::uint32_t schema_cols[] = {3, 70, 71};
  EXPECT_THROW(relaid.ensure_bitset(schema_cols), std::logic_error);
}

/// The state a matrix derives on first use — a CSR matrix's bitset, a
/// bitset-stored matrix's decoded rows — is published once: threads racing
/// to the first use all get the same state, and copies taken meanwhile
/// hold the same rows.
TEST(FeatureMatrixBitset, RacingFirstUsesShareOneDerivedState) {
  const auto rows = binary_rows();
  const FeatureMatrix csr = FeatureMatrix::from_rows(rows, 100);
  const auto storage = BitsetStorage::build(csr.view());
  ASSERT_TRUE(storage);
  constexpr std::size_t kThreads = 4;
  for (int round = 0; round < 50; ++round) {
    const FeatureMatrix owned = FeatureMatrix::from_rows(rows, 100);
    const FeatureMatrix stored =
        FeatureMatrix::borrow(storage->view(), csr.sq_norms(), nullptr);
    std::vector<const std::uint64_t*> words(kThreads);
    std::vector<const std::uint32_t*> indices(kThreads);
    std::vector<char> copies_equal(kThreads, 0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        words[t] = owned.bitset()->words.data();
        const FeatureMatrix copy = stored;
        indices[t] = stored.view().indices.data();
        copies_equal[t] = copy == csr;
      });
    }
    for (auto& thread : threads) thread.join();
    for (std::size_t t = 0; t < kThreads; ++t) {
      ASSERT_EQ(words[t], words[0]) << "round " << round;
      ASSERT_EQ(indices[t], indices[0]) << "round " << round;
      ASSERT_TRUE(copies_equal[t]) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace wtp::util
