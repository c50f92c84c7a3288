// Mean-centroid baseline: accept x when its Euclidean distance to the
// training mean is within the radius covering (1 - outlier_fraction) of the
// training data.  The simplest possible profile; used as the sanity floor in
// the alternative-models ablation.
#pragma once

#include <vector>

#include "oneclass/model.h"

namespace wtp::oneclass {

class CentroidModel final : public OneClassModel {
 public:
  explicit CentroidModel(double outlier_fraction = 0.1);

  void fit(const util::FeatureMatrix& data, std::size_t dimension) override;
  void decision_values(const util::FeatureMatrix& windows,
                       std::span<double> out) const override;
  [[nodiscard]] std::string name() const override { return "centroid"; }

  [[nodiscard]] double radius() const noexcept { return radius_; }

 private:
  /// Euclidean distance from row `r` of `rows` to the training mean.
  [[nodiscard]] double distance_to_mean(const util::FeatureMatrix& rows,
                                        std::size_t r) const;

  double outlier_fraction_;
  std::vector<double> mean_;
  double mean_sqnorm_ = 0.0;
  double radius_ = 0.0;
  bool fitted_ = false;
};

}  // namespace wtp::oneclass
