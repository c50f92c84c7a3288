// Parzen-window (kernel density) profile: the acceptance score of x is the
// mean RBF kernel to the training windows; the threshold is the training
// quantile at the configured outlier fraction.  Another "probabilistic
// model" candidate from the paper's future work.
#pragma once

#include <vector>

#include "oneclass/model.h"

namespace wtp::oneclass {

class KdeModel final : public OneClassModel {
 public:
  /// bandwidth_gamma <= 0 resolves to 1/dimension at fit time.
  explicit KdeModel(double outlier_fraction = 0.1, double bandwidth_gamma = 0.0);

  void fit(const util::FeatureMatrix& data, std::size_t dimension) override;
  [[nodiscard]] double decision_value(const util::SparseVector& x) const override;
  [[nodiscard]] std::string name() const override { return "kde"; }

  [[nodiscard]] double density(const util::SparseVector& x) const;
  [[nodiscard]] double threshold() const noexcept { return threshold_; }

 private:
  /// Mean RBF kernel over batched dot products (dots[i] = points_[i] . x).
  [[nodiscard]] double density_from_dots(std::span<const double> dots,
                                         double x_sqnorm) const;

  double outlier_fraction_;
  double gamma_;
  util::FeatureMatrix points_;
  double threshold_ = 0.0;
  bool fitted_ = false;
};

}  // namespace wtp::oneclass
