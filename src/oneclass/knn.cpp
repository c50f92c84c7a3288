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
  // the *other* points.
  std::vector<double> scores(points_.rows());
  kth_distances(points_, /*leave_one_out=*/true, scores);
  for (double& score : scores) score = -score;
  threshold_ = -quantile_threshold(scores, outlier_fraction_);
}

void KnnModel::kth_distances(const util::FeatureMatrix& queries, bool leave_one_out,
                             std::span<double> out) const {
  // One dot_block pass per query replaces n merge-join dots; the squared
  // norms come cached with both matrices.
  const svm::KernelMatrix matrix = svm::kernel_matrix(points_);
  const svm::KernelMatrix source = svm::kernel_matrix(queries);
  std::vector<double> sq_dists(points_.rows());
  std::priority_queue<double> heap;  // the k smallest squared distances
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    svm::dot_block(matrix, svm::KernelQueries::rows(source, q, 1), sq_dists);
    const double x_sqnorm = queries.sq_norm(q);
    for (std::size_t j = 0; j < points_.rows(); ++j) {
      sq_dists[j] = std::max(0.0, points_.sq_norm(j) + x_sqnorm - 2.0 * sq_dists[j]);
    }
    heap = {};
    for (std::size_t j = 0; j < sq_dists.size(); ++j) {
      if (leave_one_out && j == q) continue;
      if (heap.size() < k_) {
        heap.push(sq_dists[j]);
      } else if (sq_dists[j] < heap.top()) {
        heap.pop();
        heap.push(sq_dists[j]);
      }
    }
    out[q] = heap.empty() ? 0.0 : std::sqrt(heap.top());  // empty: one point
  }
}

void KnnModel::decision_values(const util::FeatureMatrix& windows,
                               std::span<double> out) const {
  check_decision_call(fitted_, windows, out);
  kth_distances(windows, /*leave_one_out=*/false, out);
  for (double& value : out) value = threshold_ - value;
}

}  // namespace wtp::oneclass
