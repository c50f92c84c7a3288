#include "util/sparse_vector.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.h"

namespace wtp::util {
namespace {

TEST(SparseVector, NormalizesUnsortedDuplicatedInput) {
  const SparseVector v{{5, 1.0}, {2, 2.0}, {5, 3.0}, {9, 0.0}};
  ASSERT_EQ(v.nnz(), 2u);
  EXPECT_EQ(v.entries()[0].index, 2u);
  EXPECT_DOUBLE_EQ(v.entries()[0].value, 2.0);
  EXPECT_EQ(v.entries()[1].index, 5u);
  EXPECT_DOUBLE_EQ(v.entries()[1].value, 4.0);  // duplicates summed
}

TEST(SparseVector, NormalizeHandlesAscendingInput) {
  // Strictly ascending: kept in place, zeros dropped.
  std::vector<SparseVector::Entry> ascending{{0, 0.0}, {2, 1.5}, {4, 0.0}, {8, -1.0}};
  SparseVector::normalize(ascending);
  EXPECT_EQ(ascending, (std::vector<SparseVector::Entry>{{2, 1.5}, {8, -1.0}}));
  // Sorted with a repeated index: still summed.
  std::vector<SparseVector::Entry> repeated{{1, 1.0}, {3, 2.0}, {3, 0.5}, {7, 0.0}};
  SparseVector::normalize(repeated);
  EXPECT_EQ(repeated, (std::vector<SparseVector::Entry>{{1, 1.0}, {3, 2.5}}));
}

TEST(SparseVector, AtReturnsValueOrZero) {
  const SparseVector v{{1, 0.5}, {10, -2.0}};
  EXPECT_DOUBLE_EQ(v.at(1), 0.5);
  EXPECT_DOUBLE_EQ(v.at(10), -2.0);
  EXPECT_DOUBLE_EQ(v.at(0), 0.0);
  EXPECT_DOUBLE_EQ(v.at(100), 0.0);
}

TEST(SparseVector, DenseRoundTrip) {
  const std::vector<double> dense{0.0, 1.0, 0.0, 0.0, 2.5, 0.0};
  const SparseVector v = SparseVector::from_dense(dense);
  EXPECT_EQ(v.nnz(), 2u);
  EXPECT_EQ(v.to_dense(6), dense);
}

TEST(SparseVector, ToDenseRejectsSmallDimension) {
  const SparseVector v{{7, 1.0}};
  EXPECT_THROW((void)v.to_dense(5), std::out_of_range);
}

TEST(SparseVector, DotDisjointIsZero) {
  const SparseVector a{{0, 1.0}, {2, 1.0}};
  const SparseVector b{{1, 5.0}, {3, 5.0}};
  EXPECT_DOUBLE_EQ(a.dot(b), 0.0);
}

TEST(SparseVector, DotMatchesDense) {
  Rng rng{77};
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> da(30, 0.0);
    std::vector<double> db(30, 0.0);
    for (int k = 0; k < 10; ++k) {
      da[rng.uniform_index(30)] = rng.uniform(-2.0, 2.0);
      db[rng.uniform_index(30)] = rng.uniform(-2.0, 2.0);
    }
    const SparseVector a = SparseVector::from_dense(da);
    const SparseVector b = SparseVector::from_dense(db);
    double expected = 0.0;
    for (int i = 0; i < 30; ++i) expected += da[i] * db[i];
    ASSERT_NEAR(a.dot(b), expected, 1e-12);
    ASSERT_NEAR(a.dot(b), b.dot(a), 1e-12);
  }
}

TEST(SparseVector, SquaredDistanceMatchesDense) {
  Rng rng{79};
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> da(20, 0.0);
    std::vector<double> db(20, 0.0);
    for (int k = 0; k < 6; ++k) {
      da[rng.uniform_index(20)] = rng.uniform(-1.0, 1.0);
      db[rng.uniform_index(20)] = rng.uniform(-1.0, 1.0);
    }
    const SparseVector a = SparseVector::from_dense(da);
    const SparseVector b = SparseVector::from_dense(db);
    double expected = 0.0;
    for (int i = 0; i < 20; ++i) {
      expected += (da[i] - db[i]) * (da[i] - db[i]);
    }
    ASSERT_NEAR(a.squared_distance(b), expected, 1e-12);
    // Identity: ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b
    ASSERT_NEAR(a.squared_distance(b),
                a.squared_norm() + b.squared_norm() - 2.0 * a.dot(b), 1e-12);
  }
}

TEST(SparseVector, DistanceToSelfIsZero) {
  const SparseVector v{{3, 1.5}, {8, -0.5}};
  EXPECT_DOUBLE_EQ(v.squared_distance(v), 0.0);
}

TEST(SparseVector, EqualityIsStructural) {
  const SparseVector a{{1, 1.0}, {2, 2.0}};
  const SparseVector b{{2, 2.0}, {1, 1.0}};  // normalized to same layout
  const SparseVector c{{1, 1.0}};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace wtp::util
