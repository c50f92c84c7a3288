// k-nearest-neighbour distance model: the acceptance score of x is the
// (negated) Euclidean distance to its k-th nearest training window; the
// threshold is calibrated on leave-one-out training distances.  A strong
// classical one-class baseline for the A3 ablation.
#pragma once

#include <vector>

#include "oneclass/model.h"

namespace wtp::oneclass {

class KnnModel final : public OneClassModel {
 public:
  explicit KnnModel(std::size_t k = 5, double outlier_fraction = 0.1);

  void fit(const util::FeatureMatrix& data, std::size_t dimension) override;
  /// threshold() minus each window's distance to its k-th nearest training
  /// window.
  void decision_values(const util::FeatureMatrix& windows,
                       std::span<double> out) const override;
  [[nodiscard]] std::string name() const override { return "knn"; }

  [[nodiscard]] double threshold() const noexcept { return threshold_; }

 private:
  /// out[q] = the distance from row q of `queries` to its k-th nearest
  /// training window; with `leave_one_out` (calibration, queries ==
  /// points_) training window q itself is skipped.
  void kth_distances(const util::FeatureMatrix& queries, bool leave_one_out,
                     std::span<double> out) const;

  std::size_t k_;
  double outlier_fraction_;
  util::FeatureMatrix points_;
  double threshold_ = 0.0;
  bool fitted_ = false;
};

}  // namespace wtp::oneclass
