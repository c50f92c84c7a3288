// Common interface for one-class (novelty-detection) models.
//
// The paper uses OC-SVM and SVDD; its future-work section proposes trying
// auto-encoders and probabilistic models.  This interface lets the profiling
// core and the ablation benchmarks treat all of them uniformly: fit on one
// user's transaction windows, then accept/reject new windows.
//
// Convention: decision_value(x) >= 0 means "accepted" (looks like the
// profiled user), and larger means more confidently inside the profile.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "util/feature_matrix.h"
#include "util/sparse_vector.h"

namespace wtp::oneclass {

class OneClassModel {
 public:
  virtual ~OneClassModel() = default;

  /// Trains on the profiled user's window matrix (the canonical CSR data
  /// plane); `dimension` is the feature-space dimension.  Implementations
  /// throw std::invalid_argument on empty data.
  virtual void fit(const util::FeatureMatrix& data, std::size_t dimension) = 0;

  /// Signed acceptance score; >= 0 accepts.  Only valid after fit().
  [[nodiscard]] virtual double decision_value(const util::SparseVector& x) const = 0;

  [[nodiscard]] bool accepts(const util::SparseVector& x) const {
    return decision_value(x) >= 0.0;
  }

  /// Short model name for reports ("oc-svm", "svdd", "autoencoder", ...).
  [[nodiscard]] virtual std::string name() const = 0;
};

using OneClassModelPtr = std::unique_ptr<OneClassModel>;

/// Picks the threshold that rejects the `outlier_fraction` worst training
/// scores: returns the outlier_fraction-quantile of `scores` (where higher
/// scores are better).  Shared by the threshold-based models below.
[[nodiscard]] double quantile_threshold(std::span<const double> scores,
                                        double outlier_fraction);

}  // namespace wtp::oneclass
