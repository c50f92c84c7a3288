#include "oneclass/isolation_forest.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.h"

namespace wtp::oneclass {

namespace {

/// Average unsuccessful-search path length in a BST of n nodes (the
/// isolation-forest normalization constant c(n)).
double average_path_length(double n) {
  if (n <= 1.0) return 0.0;
  constexpr double kEulerMascheroni = 0.5772156649015329;
  const double harmonic = std::log(n - 1.0) + kEulerMascheroni;
  return 2.0 * harmonic - 2.0 * (n - 1.0) / n;
}

}  // namespace

IsolationForestModel::IsolationForestModel(IsolationForestConfig config)
    : config_{config} {
  if (config.num_trees == 0 || config.subsample < 2) {
    throw std::invalid_argument{
        "IsolationForestModel: need >= 1 tree and subsample >= 2"};
  }
  if (config.outlier_fraction < 0.0 || config.outlier_fraction >= 1.0) {
    throw std::invalid_argument{
        "IsolationForestModel: outlier_fraction must be in [0, 1)"};
  }
}

void IsolationForestModel::fit(const util::FeatureMatrix& data,
                               std::size_t dimension) {
  if (data.empty()) {
    throw std::invalid_argument{"IsolationForestModel::fit: empty data"};
  }
  dimension_ = dimension;
  util::Rng rng{config_.seed};
  const std::size_t sample_size = std::min(config_.subsample, data.rows());
  normalizer_ = std::max(1e-9, average_path_length(static_cast<double>(sample_size)));
  const auto height_limit = static_cast<std::size_t>(
      std::ceil(std::log2(std::max<std::size_t>(2, sample_size))));

  // Dense copies of the subsamples keep split evaluation branch-light; one
  // flat buffer per tree via copy_row_dense avoids per-row allocations.
  trees_.clear();
  trees_.resize(config_.num_trees);
  std::vector<double> dense(sample_size * dimension);
  const auto dense_at = [&](std::size_t row, std::size_t feature) {
    return dense[row * dimension + feature];
  };
  std::vector<std::size_t> indices;
  for (auto& tree : trees_) {
    // Draw the per-tree subsample (without replacement when possible).
    indices.resize(data.rows());
    for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
    rng.shuffle(indices);
    indices.resize(sample_size);
    for (std::size_t i = 0; i < sample_size; ++i) {
      data.copy_row_dense(indices[i],
                          std::span<double>{dense.data() + i * dimension, dimension});
    }

    // Iterative tree construction over index ranges of `working`.
    struct Pending {
      std::size_t begin, end, depth;
      std::int32_t* slot;  ///< parent child pointer to fill in
    };
    std::vector<std::size_t> working(sample_size);
    for (std::size_t i = 0; i < sample_size; ++i) working[i] = i;
    // Pending slots point into tree.nodes: reserve the worst case
    // (sample_size leaves + sample_size-1 internal nodes) so emplace_back
    // never reallocates under them.
    tree.nodes.reserve(2 * sample_size);
    std::int32_t root = -1;
    std::vector<Pending> stack{{0, sample_size, 0, &root}};
    while (!stack.empty()) {
      const Pending task = stack.back();
      stack.pop_back();
      const std::size_t count = task.end - task.begin;
      *task.slot = static_cast<std::int32_t>(tree.nodes.size());
      tree.nodes.emplace_back();
      const std::size_t node_index = tree.nodes.size() - 1;

      // Find a splittable feature: one whose min < max in this range.
      std::size_t split_feature = dimension;
      double lo = 0.0;
      double hi = 0.0;
      if (count > 1 && task.depth < height_limit) {
        for (int attempt = 0; attempt < 32; ++attempt) {
          const std::size_t feature = rng.uniform_index(dimension);
          double min_v = dense_at(working[task.begin], feature);
          double max_v = min_v;
          for (std::size_t i = task.begin + 1; i < task.end; ++i) {
            const double v = dense_at(working[i], feature);
            min_v = std::min(min_v, v);
            max_v = std::max(max_v, v);
          }
          if (max_v > min_v) {
            split_feature = feature;
            lo = min_v;
            hi = max_v;
            break;
          }
        }
      }
      if (split_feature == dimension) {
        tree.nodes[node_index].leaf_size = static_cast<std::uint32_t>(count);
        continue;
      }
      const double threshold = rng.uniform(lo, hi);
      // Partition the range.
      std::size_t mid = task.begin;
      for (std::size_t i = task.begin; i < task.end; ++i) {
        if (dense_at(working[i], split_feature) < threshold) {
          std::swap(working[i], working[mid]);
          ++mid;
        }
      }
      if (mid == task.begin || mid == task.end) {
        // Degenerate split (threshold at the boundary): make a leaf.
        tree.nodes[node_index].leaf_size = static_cast<std::uint32_t>(count);
        continue;
      }
      tree.nodes[node_index].feature = split_feature;
      tree.nodes[node_index].threshold = threshold;
      // Children fill their slots when popped; push right first so left is
      // processed next (cache-friendlier, order irrelevant to semantics).
      stack.push_back({mid, task.end, task.depth + 1,
                       &tree.nodes[node_index].right});
      stack.push_back({task.begin, mid, task.depth + 1,
                       &tree.nodes[node_index].left});
    }
  }
  fitted_ = true;

  std::vector<double> scores(data.rows());
  anomaly_scores(data, scores);
  for (double& score : scores) score = -score;
  threshold_ = -quantile_threshold(scores, config_.outlier_fraction);
}

double IsolationForestModel::path_length(const Tree& tree,
                                         std::span<const double> x) const {
  double depth = 0.0;
  std::int32_t node_index = 0;
  while (true) {
    const Node& node = tree.nodes[static_cast<std::size_t>(node_index)];
    if (node.left < 0) {
      return depth + average_path_length(static_cast<double>(node.leaf_size));
    }
    node_index = x[node.feature] < node.threshold ? node.left : node.right;
    ++depth;
  }
}

void IsolationForestModel::anomaly_scores(const util::FeatureMatrix& rows,
                                          std::span<double> out) const {
  std::vector<double> dense(std::max(rows.cols(), dimension_));
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    rows.copy_row_dense(r, dense);
    double total = 0.0;
    for (const auto& tree : trees_) total += path_length(tree, dense);
    const double mean_path = total / static_cast<double>(trees_.size());
    out[r] = std::pow(2.0, -mean_path / normalizer_);
  }
}

void IsolationForestModel::decision_values(const util::FeatureMatrix& windows,
                                           std::span<double> out) const {
  check_decision_call(fitted_, windows, out);
  anomaly_scores(windows, out);
  for (double& value : out) value = threshold_ - value;
}

}  // namespace wtp::oneclass
