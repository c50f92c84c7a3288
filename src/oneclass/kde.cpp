#include "oneclass/kde.h"

#include "svm/kernel.h"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace wtp::oneclass {

KdeModel::KdeModel(double outlier_fraction, double bandwidth_gamma)
    : outlier_fraction_{outlier_fraction}, gamma_{bandwidth_gamma} {
  if (outlier_fraction < 0.0 || outlier_fraction >= 1.0) {
    throw std::invalid_argument{"KdeModel: outlier_fraction must be in [0, 1)"};
  }
}

void KdeModel::fit(const util::FeatureMatrix& data, std::size_t dimension) {
  if (data.empty()) throw std::invalid_argument{"KdeModel::fit: empty data"};
  if (gamma_ <= 0.0) {
    gamma_ = 1.0 / static_cast<double>(std::max<std::size_t>(1, dimension));
  }
  points_ = data;
  fitted_ = true;

  // Leave-one-out densities would be ideal; plain densities shift every
  // training score up by 1/n uniformly, which the quantile absorbs.
  std::vector<double> scores(points_.rows());
  densities(points_, scores);
  threshold_ = quantile_threshold(scores, outlier_fraction_);
}

void KdeModel::densities(const util::FeatureMatrix& queries,
                         std::span<double> out) const {
  const svm::KernelMatrix matrix = svm::kernel_matrix(points_);
  const svm::KernelMatrix source = svm::kernel_matrix(queries);
  std::vector<double> dots(points_.rows());
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    svm::dot_block(matrix, svm::KernelQueries::rows(source, q, 1), dots);
    const double x_sqnorm = queries.sq_norm(q);
    double sum = 0.0;
    for (std::size_t i = 0; i < points_.rows(); ++i) {
      const double sq_dist =
          std::max(0.0, points_.sq_norm(i) + x_sqnorm - 2.0 * dots[i]);
      sum += std::exp(-gamma_ * sq_dist);
    }
    out[q] = sum / static_cast<double>(points_.rows());
  }
}

void KdeModel::decision_values(const util::FeatureMatrix& windows,
                               std::span<double> out) const {
  check_decision_call(fitted_, windows, out);
  densities(windows, out);
  for (double& value : out) value -= threshold_;
}

}  // namespace wtp::oneclass
