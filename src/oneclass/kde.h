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
  /// Each window's density minus threshold().
  void decision_values(const util::FeatureMatrix& windows,
                       std::span<double> out) const override;
  [[nodiscard]] std::string name() const override { return "kde"; }

  [[nodiscard]] double threshold() const noexcept { return threshold_; }

 private:
  /// out[q] = the mean RBF kernel of row q of `queries` to the training
  /// windows.
  void densities(const util::FeatureMatrix& queries, std::span<double> out) const;

  double outlier_fraction_;
  double gamma_;
  util::FeatureMatrix points_;
  double threshold_ = 0.0;
  bool fitted_ = false;
};

}  // namespace wtp::oneclass
