// Scoring SparseVector rows with a OneClassModel in a test: a model scores
// window matrices, so these helpers build one from the rows.
#pragma once

#include <span>
#include <vector>

#include "oneclass/model.h"
#include "util/sparse_vector.h"

namespace wtp::oneclass::testing {

/// The model's decision value on every row of `rows`, scored as one matrix.
inline std::vector<double> decide(const OneClassModel& model,
                                  std::span<const util::SparseVector> rows) {
  std::vector<double> out(rows.size());
  model.decision_values(util::FeatureMatrix::from_rows(rows), out);
  return out;
}

/// The model's decision value on `x`.
inline double decide(const OneClassModel& model, const util::SparseVector& x) {
  return decide(model, std::span{&x, 1}).front();
}

/// How many of `rows` the model accepts (decision value >= 0).
inline std::size_t accepted(const OneClassModel& model,
                            std::span<const util::SparseVector> rows) {
  std::size_t count = 0;
  for (const double value : decide(model, rows)) count += value >= 0.0 ? 1 : 0;
  return count;
}

}  // namespace wtp::oneclass::testing
