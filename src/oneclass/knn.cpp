#include "oneclass/knn.h"

#include "svm/kernel.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <vector>

namespace wtp::oneclass {

KnnModel::KnnModel(std::size_t k, double outlier_fraction)
    : k_{k}, outlier_fraction_{outlier_fraction} {
  if (k == 0) throw std::invalid_argument{"KnnModel: k must be > 0"};
  if (outlier_fraction < 0.0 || outlier_fraction >= 1.0) {
    throw std::invalid_argument{"KnnModel: outlier_fraction must be in [0, 1)"};
  }
}

void KnnModel::fit(const util::FeatureMatrix& data, std::size_t dimension) {
  (void)dimension;  // metric model: no dense expansion needed
  if (data.empty()) throw std::invalid_argument{"KnnModel::fit: empty data"};
  points_ = data;
  fitted_ = true;

  // Leave-one-out calibration: each training point's k-th neighbour among
  // the *other* points.  One dot_all pass per point replaces n merge-join
  // dots; the shared squared norms come cached with the matrix.
  std::vector<double> scores;
  scores.reserve(points_.rows());
  std::vector<double> sq_dists(points_.rows());
  const svm::KernelMatrix matrix = svm::kernel_matrix(points_);
  for (std::size_t i = 0; i < points_.rows(); ++i) {
    svm::dot_block(matrix, svm::KernelQueries::rows(matrix, i, 1), sq_dists);
    const double x_sqnorm = points_.sq_norm(i);
    for (std::size_t j = 0; j < points_.rows(); ++j) {
      sq_dists[j] = std::max(0.0, points_.sq_norm(j) + x_sqnorm - 2.0 * sq_dists[j]);
    }
    scores.push_back(-kth_from_sq_dists(sq_dists, i));
  }
  threshold_ = -quantile_threshold(scores, outlier_fraction_);
}

void KnnModel::sq_dists_to_all(const util::SparseVector& x,
                               std::span<double> out) const {
  const double x_sqnorm = x.squared_norm();
  svm::dot_block(svm::kernel_matrix(points_), svm::KernelQueries::row(x, x_sqnorm),
                 out);
  for (std::size_t i = 0; i < points_.rows(); ++i) {
    out[i] = std::max(0.0, points_.sq_norm(i) + x_sqnorm - 2.0 * out[i]);
  }
}

double KnnModel::kth_from_sq_dists(std::span<const double> sq_dists,
                                   std::size_t skip_index) const {
  // Max-heap of the k smallest squared distances seen so far.
  std::priority_queue<double> heap;
  for (std::size_t i = 0; i < sq_dists.size(); ++i) {
    if (i == skip_index) continue;
    const double sq = sq_dists[i];
    if (heap.size() < k_) {
      heap.push(sq);
    } else if (sq < heap.top()) {
      heap.pop();
      heap.push(sq);
    }
  }
  if (heap.empty()) return 0.0;  // single-point training set
  return std::sqrt(heap.top());
}

double KnnModel::kth_distance(const util::SparseVector& x) const {
  if (!fitted_) throw std::logic_error{"KnnModel: distance before fit"};
  thread_local std::vector<double> sq_dists;
  sq_dists.resize(points_.rows());
  sq_dists_to_all(x, sq_dists);
  return kth_from_sq_dists(sq_dists, points_.rows());
}

double KnnModel::decision_value(const util::SparseVector& x) const {
  return threshold_ - kth_distance(x);
}

}  // namespace wtp::oneclass
