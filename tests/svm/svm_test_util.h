// Scoring one SparseVector against an SvmModel in a test, which takes the
// query's squared norm precomputed (it is needed once per scored vector).
#pragma once

#include "svm/svm_model.h"
#include "util/sparse_vector.h"

namespace wtp::svm::testing {

/// f(x), in the exact tier.
inline double decide(const SvmModel& model, const util::SparseVector& x) {
  return model.decision_value(x, x.squared_norm());
}

/// f(x) >= 0: the model accepts x.
inline bool accepts(const SvmModel& model, const util::SparseVector& x) {
  return decide(model, x) >= 0.0;
}

}  // namespace wtp::svm::testing
