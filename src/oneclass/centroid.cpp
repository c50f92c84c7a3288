#include "oneclass/centroid.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/stats.h"

namespace wtp::oneclass {

double quantile_threshold(std::span<const double> scores, double outlier_fraction) {
  if (scores.empty()) {
    throw std::invalid_argument{"quantile_threshold: empty scores"};
  }
  const double q = std::clamp(outlier_fraction, 0.0, 1.0);
  return util::quantile(scores, q);
}

CentroidModel::CentroidModel(double outlier_fraction)
    : outlier_fraction_{outlier_fraction} {
  if (outlier_fraction < 0.0 || outlier_fraction >= 1.0) {
    throw std::invalid_argument{"CentroidModel: outlier_fraction must be in [0, 1)"};
  }
}

void CentroidModel::fit(const util::FeatureMatrix& data, std::size_t dimension) {
  if (data.empty()) throw std::invalid_argument{"CentroidModel::fit: empty data"};
  mean_.assign(dimension, 0.0);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    const auto indices = data.row_indices(r);
    const auto values = data.row_values(r);
    for (std::size_t k = 0; k < indices.size(); ++k) {
      if (indices[k] >= dimension) {
        throw std::out_of_range{"CentroidModel::fit: feature index out of range"};
      }
      mean_[indices[k]] += values[k];
    }
  }
  const double inv = 1.0 / static_cast<double>(data.rows());
  mean_sqnorm_ = 0.0;
  for (auto& value : mean_) {
    value *= inv;
    mean_sqnorm_ += value * value;
  }
  fitted_ = true;

  // Radius covering all but the outlier fraction: negate so that "higher is
  // better" for the shared quantile helper.
  std::vector<double> scores;
  scores.reserve(data.rows());
  for (std::size_t r = 0; r < data.rows(); ++r) {
    scores.push_back(-distance_to_mean(data, r));
  }
  radius_ = -quantile_threshold(scores, outlier_fraction_);
}

double CentroidModel::distance_to_mean(const util::FeatureMatrix& rows,
                                       std::size_t r) const {
  // ||x - m||^2 = ||x||^2 - 2 x.m + ||m||^2, exploiting x's sparsity.
  const auto indices = rows.row_indices(r);
  const auto values = rows.row_values(r);
  double cross = 0.0;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    if (indices[k] < mean_.size()) cross += values[k] * mean_[indices[k]];
  }
  const double sq = rows.sq_norm(r) - 2.0 * cross + mean_sqnorm_;
  return std::sqrt(std::max(0.0, sq));
}

void CentroidModel::decision_values(const util::FeatureMatrix& windows,
                                    std::span<double> out) const {
  check_decision_call(fitted_, windows, out);
  for (std::size_t r = 0; r < windows.rows(); ++r) {
    out[r] = radius_ - distance_to_mean(windows, r);
  }
}

}  // namespace wtp::oneclass
