// From-scratch MLP auto-encoder for one-class classification (the paper's
// future-work extension §VII).
//
// Architecture: dense dim -> hidden -> dim with sigmoid activations (inputs
// are in [0,1]).  Trained with Adam on mean-squared reconstruction error;
// a window is accepted when its reconstruction error is within the
// (1 - outlier_fraction) training quantile.  Fully deterministic given the
// seed.
#pragma once

#include <cstdint>
#include <vector>

#include "oneclass/model.h"

namespace wtp::oneclass {

struct AutoencoderConfig {
  std::size_t hidden_units = 32;
  std::size_t epochs = 60;
  std::size_t batch_size = 32;
  double learning_rate = 1e-2;
  double outlier_fraction = 0.1;
  std::uint64_t seed = 7;
};

class AutoencoderModel final : public OneClassModel {
 public:
  explicit AutoencoderModel(AutoencoderConfig config = {});

  void fit(const util::FeatureMatrix& data, std::size_t dimension) override;
  /// threshold() minus each window's mean squared reconstruction error.
  /// Throws std::out_of_range for a window with a feature index at or past
  /// the fitted dimension.
  void decision_values(const util::FeatureMatrix& windows,
                       std::span<double> out) const override;
  [[nodiscard]] std::string name() const override { return "autoencoder"; }

  [[nodiscard]] double threshold() const noexcept { return threshold_; }
  /// Training loss after the final epoch (for convergence tests).
  [[nodiscard]] double final_loss() const noexcept { return final_loss_; }

 private:
  /// Forward pass; hidden/output buffers supplied by the caller so decisions
  /// stay allocation-light.
  void forward(std::span<const double> input, std::vector<double>& hidden,
               std::vector<double>& output) const;
  /// out[r] = the mean squared reconstruction error of row r of `rows`
  /// (lower = more "inside"), from a dense copy of the row.
  void reconstruction_errors(const util::FeatureMatrix& rows,
                             std::span<double> out) const;

  AutoencoderConfig config_;
  std::size_t dimension_ = 0;
  // Row-major weights: w1_[h * dim + d], w2_[d * hidden + h].
  std::vector<double> w1_, b1_, w2_, b2_;
  double threshold_ = 0.0;
  double final_loss_ = 0.0;
  bool fitted_ = false;
};

}  // namespace wtp::oneclass
