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
  [[nodiscard]] double decision_value(const util::SparseVector& x) const override;
  [[nodiscard]] std::string name() const override { return "knn"; }

  /// Distance to the k-th nearest training point (excluding exact self
  /// matches only via the extra-neighbour trick during calibration).
  [[nodiscard]] double kth_distance(const util::SparseVector& x) const;
  [[nodiscard]] double threshold() const noexcept { return threshold_; }

 private:
  /// Selects the k-th smallest of `sq_dists` (skipping `skip_index`) and
  /// returns its square root.
  [[nodiscard]] double kth_from_sq_dists(std::span<const double> sq_dists,
                                         std::size_t skip_index) const;
  /// Fills `out[i] = ||points_[i] - x||^2` from batched dot products.
  void sq_dists_to_all(const util::SparseVector& x, std::span<double> out) const;

  std::size_t k_;
  double outlier_fraction_;
  util::FeatureMatrix points_;
  double threshold_ = 0.0;
  bool fitted_ = false;
};

}  // namespace wtp::oneclass
