// Per-window scoring of a UserProfile in a test: a profile scores one
// SparseVector only with the vector's squared norm given, and the dataset
// hands out its windows as matrices.
#pragma once

#include <vector>

#include "core/profiler.h"
#include "util/feature_matrix.h"
#include "util/sparse_vector.h"

namespace wtp::core::testing {

/// The profile's decision value on `x`, in the exact tier.
inline double decide(const UserProfile& profile, const util::SparseVector& x) {
  return profile.decision_value(x, x.squared_norm());
}

/// The rows of `matrix` as vectors.
inline std::vector<util::SparseVector> rows_of(const util::FeatureMatrix& matrix) {
  std::vector<util::SparseVector> rows;
  rows.reserve(matrix.rows());
  for (std::size_t r = 0; r < matrix.rows(); ++r) rows.push_back(matrix.row_vector(r));
  return rows;
}

}  // namespace wtp::core::testing
