#include "oneclass/gaussian.h"

#include <cmath>
#include <stdexcept>

namespace wtp::oneclass {

GaussianModel::GaussianModel(double outlier_fraction, double variance_floor)
    : outlier_fraction_{outlier_fraction}, variance_floor_{variance_floor} {
  if (outlier_fraction < 0.0 || outlier_fraction >= 1.0) {
    throw std::invalid_argument{"GaussianModel: outlier_fraction must be in [0, 1)"};
  }
  if (variance_floor <= 0.0) {
    throw std::invalid_argument{"GaussianModel: variance_floor must be > 0"};
  }
}

void GaussianModel::fit(const util::FeatureMatrix& data, std::size_t dimension) {
  if (data.empty()) throw std::invalid_argument{"GaussianModel::fit: empty data"};
  const double n = static_cast<double>(data.rows());
  mean_.assign(dimension, 0.0);
  std::vector<double> sq_sum(dimension, 0.0);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    const auto indices = data.row_indices(r);
    const auto values = data.row_values(r);
    for (std::size_t k = 0; k < indices.size(); ++k) {
      if (indices[k] >= dimension) {
        throw std::out_of_range{"GaussianModel::fit: feature index out of range"};
      }
      mean_[indices[k]] += values[k];
      sq_sum[indices[k]] += values[k] * values[k];
    }
  }
  inv_variance_.assign(dimension, 0.0);
  base_distance_ = 0.0;
  for (std::size_t d = 0; d < dimension; ++d) {
    mean_[d] /= n;
    const double variance =
        std::max(variance_floor_, sq_sum[d] / n - mean_[d] * mean_[d]);
    inv_variance_[d] = 1.0 / variance;
    base_distance_ += mean_[d] * mean_[d] * inv_variance_[d];
  }
  fitted_ = true;

  std::vector<double> scores;
  scores.reserve(data.rows());
  for (std::size_t r = 0; r < data.rows(); ++r) {
    scores.push_back(-mahalanobis(data, r));
  }
  threshold_ = -quantile_threshold(scores, outlier_fraction_);
}

double GaussianModel::mahalanobis(const util::FeatureMatrix& rows,
                                  std::size_t r) const {
  // sum_d (x_d - m_d)^2 / v_d computed sparsely: start from the zero-vector
  // distance and correct the coordinates where x is non-zero.
  const auto indices = rows.row_indices(r);
  const auto values = rows.row_values(r);
  double sq = base_distance_;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    if (indices[k] >= mean_.size()) continue;  // out-of-schema: ignore
    const double m = mean_[indices[k]];
    const double iv = inv_variance_[indices[k]];
    const double diff = values[k] - m;
    sq += diff * diff * iv - m * m * iv;
  }
  return std::sqrt(std::max(0.0, sq));
}

void GaussianModel::decision_values(const util::FeatureMatrix& windows,
                                    std::span<double> out) const {
  check_decision_call(fitted_, windows, out);
  for (std::size_t r = 0; r < windows.rows(); ++r) {
    out[r] = threshold_ - mahalanobis(windows, r);
  }
}

}  // namespace wtp::oneclass
