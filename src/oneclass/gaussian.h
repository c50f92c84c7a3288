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
  [[nodiscard]] double decision_value(const util::SparseVector& x) const override;
  [[nodiscard]] std::string name() const override { return "gaussian"; }

  [[nodiscard]] double threshold() const noexcept { return threshold_; }

 private:
  [[nodiscard]] double mahalanobis(const util::SparseVector& x) const;
  [[nodiscard]] double mahalanobis(std::span<const std::uint32_t> indices,
                                   std::span<const double> values) const;

  double outlier_fraction_;
  double variance_floor_;
  std::vector<double> mean_;
  std::vector<double> inv_variance_;
  double base_distance_ = 0.0;  ///< Mahalanobis^2 of the zero vector
  double threshold_ = 0.0;
  bool fitted_ = false;
};

}  // namespace wtp::oneclass
