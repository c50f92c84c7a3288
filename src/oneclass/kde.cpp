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
  std::vector<double> scores;
  scores.reserve(points_.rows());
  std::vector<double> dots(points_.rows());
  const svm::KernelMatrix matrix = svm::kernel_matrix(points_);
  for (std::size_t i = 0; i < points_.rows(); ++i) {
    svm::dot_block(matrix, svm::KernelQueries::rows(matrix, i, 1), dots);
    scores.push_back(density_from_dots(dots, points_.sq_norm(i)));
  }
  threshold_ = quantile_threshold(scores, outlier_fraction_);
}

double KdeModel::density_from_dots(std::span<const double> dots,
                                   double x_sqnorm) const {
  double sum = 0.0;
  for (std::size_t i = 0; i < points_.rows(); ++i) {
    const double sq_dist =
        std::max(0.0, points_.sq_norm(i) + x_sqnorm - 2.0 * dots[i]);
    sum += std::exp(-gamma_ * sq_dist);
  }
  return sum / static_cast<double>(points_.rows());
}

double KdeModel::density(const util::SparseVector& x) const {
  if (!fitted_) throw std::logic_error{"KdeModel: density before fit"};
  thread_local std::vector<double> dots;
  dots.resize(points_.rows());
  const double x_sqnorm = x.squared_norm();
  svm::dot_block(svm::kernel_matrix(points_), svm::KernelQueries::row(x, x_sqnorm),
                 dots);
  return density_from_dots(dots, x_sqnorm);
}

double KdeModel::decision_value(const util::SparseVector& x) const {
  return density(x) - threshold_;
}

}  // namespace wtp::oneclass
