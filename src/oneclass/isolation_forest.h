// Isolation Forest one-class model (Liu, Ting, Zhou 2008), from scratch.
//
// An ensemble of random isolation trees: each tree recursively splits a
// subsample on a random feature at a random threshold; anomalous points
// isolate in few splits.  The anomaly score is 2^(-E[path length]/c(n));
// the acceptance threshold is the training quantile at the configured
// outlier fraction.  Included in the alternative-models ablation (A3) as a
// modern baseline the paper predates.
#pragma once

#include <cstdint>
#include <vector>

#include "oneclass/model.h"

namespace wtp::oneclass {

struct IsolationForestConfig {
  std::size_t num_trees = 100;
  std::size_t subsample = 256;      ///< per-tree sample size (capped at n)
  double outlier_fraction = 0.1;
  std::uint64_t seed = 17;
};

class IsolationForestModel final : public OneClassModel {
 public:
  explicit IsolationForestModel(IsolationForestConfig config = {});

  void fit(const util::FeatureMatrix& data, std::size_t dimension) override;
  /// threshold() minus each window's anomaly score.
  void decision_values(const util::FeatureMatrix& windows,
                       std::span<double> out) const override;
  [[nodiscard]] std::string name() const override { return "isolation-forest"; }

  [[nodiscard]] double threshold() const noexcept { return threshold_; }

 private:
  /// Flattened tree: internal nodes carry (feature, threshold, children);
  /// leaves carry the subsample size that reached them (path-length
  /// adjustment c(size) is added at scoring time).
  struct Node {
    std::size_t feature = 0;
    double threshold = 0.0;
    std::int32_t left = -1;    ///< index into the tree's node vector
    std::int32_t right = -1;
    std::uint32_t leaf_size = 0;
  };
  struct Tree {
    std::vector<Node> nodes;
  };

  [[nodiscard]] double path_length(const Tree& tree,
                                   std::span<const double> x) const;
  /// out[r] = the anomaly score of row r of `rows`, in (0, 1): ~0.5 for
  /// average points, -> 1 for anomalies.  Scores a dense copy of each row.
  void anomaly_scores(const util::FeatureMatrix& rows, std::span<double> out) const;

  IsolationForestConfig config_;
  std::size_t dimension_ = 0;
  std::vector<Tree> trees_;
  double normalizer_ = 1.0;  ///< c(subsample)
  double threshold_ = 0.0;
  bool fitted_ = false;
};

}  // namespace wtp::oneclass
