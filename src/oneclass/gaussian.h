// Diagonal-covariance Gaussian profile (a "probabilistic model" from the
// paper's future-work list): accept x when its Mahalanobis distance to the
// training distribution is within the (1 - outlier_fraction) training
// quantile.  A variance floor keeps constant features from blowing up the
// distance.
#pragma once

#include <vector>

#include "oneclass/model.h"

namespace wtp::oneclass {

class GaussianModel final : public OneClassModel {
 public:
  explicit GaussianModel(double outlier_fraction = 0.1,
                         double variance_floor = 1e-4);

  void fit(const util::FeatureMatrix& data, std::size_t dimension) override;
  void decision_values(const util::FeatureMatrix& windows,
                       std::span<double> out) const override;
  [[nodiscard]] std::string name() const override { return "gaussian"; }

  [[nodiscard]] double threshold() const noexcept { return threshold_; }

 private:
  /// Mahalanobis distance of row `r` of `rows` to the training distribution.
  [[nodiscard]] double mahalanobis(const util::FeatureMatrix& rows,
                                   std::size_t r) const;

  double outlier_fraction_;
  double variance_floor_;
  std::vector<double> mean_;
  std::vector<double> inv_variance_;
  double base_distance_ = 0.0;  ///< Mahalanobis^2 of the zero vector
  double threshold_ = 0.0;
  bool fitted_ = false;
};

}  // namespace wtp::oneclass
