// Common interface for one-class (novelty-detection) models.
//
// The paper uses OC-SVM and SVDD; its future-work section proposes trying
// auto-encoders and probabilistic models.  This interface lets the profiling
// core and the ablation benchmarks treat all of them uniformly: fit on one
// user's window matrix, then score the rows of another.  Every model scores
// through the one row scorer its fit() calibrates the threshold with, so a
// window's decision does not depend on which matrix it is scored in.
//
// Convention: a decision value >= 0 means "accepted" (looks like the
// profiled user), and larger means more confidently inside the profile.
#pragma once

#include <memory>
#include <span>
#include <stdexcept>
#include <string>

#include "util/feature_matrix.h"

namespace wtp::oneclass {

class OneClassModel {
 public:
  virtual ~OneClassModel() = default;

  /// Trains on the profiled user's window matrix (the canonical CSR data
  /// plane); `dimension` is the feature-space dimension.  Implementations
  /// throw std::invalid_argument on empty data.
  virtual void fit(const util::FeatureMatrix& data, std::size_t dimension) = 0;

  /// Signed acceptance score of every row of `windows`, written to `out`;
  /// >= 0 accepts.  Throws std::logic_error before fit(), and
  /// std::invalid_argument unless out.size() == windows.rows().
  virtual void decision_values(const util::FeatureMatrix& windows,
                               std::span<double> out) const = 0;

  /// Short model name for reports ("oc-svm", "svdd", "autoencoder", ...).
  [[nodiscard]] virtual std::string name() const = 0;

 protected:
  /// The checks every decision_values makes before it scores.
  void check_decision_call(bool fitted, const util::FeatureMatrix& windows,
                           std::span<const double> out) const {
    if (!fitted) throw std::logic_error{name() + ": decision before fit"};
    if (out.size() != windows.rows()) {
      throw std::invalid_argument{name() +
                                  ": decision_values needs one output per window"};
    }
  }
};

using OneClassModelPtr = std::unique_ptr<OneClassModel>;

/// Picks the threshold that rejects the `outlier_fraction` worst training
/// scores: returns the outlier_fraction-quantile of `scores` (where higher
/// scores are better).  Shared by the threshold-based models below.
[[nodiscard]] double quantile_threshold(std::span<const double> scores,
                                        double outlier_fraction);

}  // namespace wtp::oneclass
