#include "oneclass/autoencoder.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/rng.h"

namespace wtp::oneclass {

namespace {

double sigmoid(double x) noexcept { return 1.0 / (1.0 + std::exp(-x)); }

/// Adam state for one parameter tensor.
struct AdamState {
  std::vector<double> m, v;
  explicit AdamState(std::size_t size) : m(size, 0.0), v(size, 0.0) {}

  void step(std::vector<double>& params, const std::vector<double>& grad,
            double lr, std::size_t t) {
    constexpr double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
    const double bias1 = 1.0 - std::pow(beta1, static_cast<double>(t));
    const double bias2 = 1.0 - std::pow(beta2, static_cast<double>(t));
    for (std::size_t i = 0; i < params.size(); ++i) {
      m[i] = beta1 * m[i] + (1.0 - beta1) * grad[i];
      v[i] = beta2 * v[i] + (1.0 - beta2) * grad[i] * grad[i];
      params[i] -= lr * (m[i] / bias1) / (std::sqrt(v[i] / bias2) + eps);
    }
  }
};

}  // namespace

AutoencoderModel::AutoencoderModel(AutoencoderConfig config)
    : config_{config} {
  if (config.hidden_units == 0) {
    throw std::invalid_argument{"AutoencoderModel: hidden_units must be > 0"};
  }
  if (config.outlier_fraction < 0.0 || config.outlier_fraction >= 1.0) {
    throw std::invalid_argument{"AutoencoderModel: outlier_fraction must be in [0, 1)"};
  }
}

void AutoencoderModel::forward(std::span<const double> input,
                               std::vector<double>& hidden,
                               std::vector<double>& output) const {
  const std::size_t h_units = config_.hidden_units;
  hidden.assign(h_units, 0.0);
  for (std::size_t h = 0; h < h_units; ++h) {
    double sum = b1_[h];
    const double* row = &w1_[h * dimension_];
    for (std::size_t d = 0; d < dimension_; ++d) sum += row[d] * input[d];
    hidden[h] = sigmoid(sum);
  }
  output.assign(dimension_, 0.0);
  for (std::size_t d = 0; d < dimension_; ++d) {
    double sum = b2_[d];
    const double* row = &w2_[d * h_units];
    for (std::size_t h = 0; h < h_units; ++h) sum += row[h] * hidden[h];
    output[d] = sigmoid(sum);
  }
}

void AutoencoderModel::fit(const util::FeatureMatrix& data, std::size_t dimension) {
  if (data.empty()) throw std::invalid_argument{"AutoencoderModel::fit: empty data"};
  if (dimension == 0) throw std::invalid_argument{"AutoencoderModel::fit: dimension 0"};
  dimension_ = dimension;
  const std::size_t h_units = config_.hidden_units;

  util::Rng rng{config_.seed};
  const double scale1 = std::sqrt(2.0 / static_cast<double>(dimension + h_units));
  w1_.resize(h_units * dimension);
  for (auto& w : w1_) w = rng.normal(0.0, scale1);
  b1_.assign(h_units, 0.0);
  w2_.resize(dimension * h_units);
  for (auto& w : w2_) w = rng.normal(0.0, scale1);
  b2_.assign(dimension, 0.0);

  // One flat dense buffer for all training windows (short-lived, dimension
  // <= ~1000); copy_row_dense avoids a per-row vector allocation.
  const std::size_t n = data.rows();
  std::vector<double> dense(n * dimension);
  for (std::size_t r = 0; r < n; ++r) {
    data.copy_row_dense(r, std::span<double>{dense.data() + r * dimension, dimension});
  }
  const auto dense_row = [&](std::size_t r) {
    return std::span<const double>{dense.data() + r * dimension, dimension};
  };

  AdamState adam_w1{w1_.size()}, adam_b1{b1_.size()};
  AdamState adam_w2{w2_.size()}, adam_b2{b2_.size()};
  std::vector<double> gw1(w1_.size()), gb1(b1_.size());
  std::vector<double> gw2(w2_.size()), gb2(b2_.size());
  std::vector<double> hidden, output, delta_out(dimension), delta_hidden(h_units);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});

  std::size_t adam_t = 0;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_loss = 0.0;
    for (std::size_t begin = 0; begin < order.size(); begin += config_.batch_size) {
      const std::size_t end = std::min(order.size(), begin + config_.batch_size);
      std::fill(gw1.begin(), gw1.end(), 0.0);
      std::fill(gb1.begin(), gb1.end(), 0.0);
      std::fill(gw2.begin(), gw2.end(), 0.0);
      std::fill(gb2.begin(), gb2.end(), 0.0);
      const double inv_batch = 1.0 / static_cast<double>(end - begin);

      for (std::size_t s = begin; s < end; ++s) {
        const auto x = dense_row(order[s]);
        forward(x, hidden, output);
        // MSE loss; d/dz of sigmoid folded into the deltas.
        for (std::size_t d = 0; d < dimension; ++d) {
          const double err = output[d] - x[d];
          epoch_loss += err * err;
          delta_out[d] = 2.0 * err * output[d] * (1.0 - output[d]) * inv_batch;
        }
        for (std::size_t h = 0; h < h_units; ++h) {
          double sum = 0.0;
          for (std::size_t d = 0; d < dimension; ++d) {
            sum += delta_out[d] * w2_[d * h_units + h];
          }
          delta_hidden[h] = sum * hidden[h] * (1.0 - hidden[h]);
        }
        for (std::size_t d = 0; d < dimension; ++d) {
          const double delta = delta_out[d];
          if (delta == 0.0) continue;
          double* grow = &gw2[d * h_units];
          for (std::size_t h = 0; h < h_units; ++h) grow[h] += delta * hidden[h];
          gb2[d] += delta;
        }
        for (std::size_t h = 0; h < h_units; ++h) {
          const double delta = delta_hidden[h];
          if (delta == 0.0) continue;
          double* grow = &gw1[h * dimension];
          for (std::size_t d = 0; d < dimension; ++d) grow[d] += delta * x[d];
          gb1[h] += delta;
        }
      }
      ++adam_t;
      adam_w1.step(w1_, gw1, config_.learning_rate, adam_t);
      adam_b1.step(b1_, gb1, config_.learning_rate, adam_t);
      adam_w2.step(w2_, gw2, config_.learning_rate, adam_t);
      adam_b2.step(b2_, gb2, config_.learning_rate, adam_t);
    }
    final_loss_ = epoch_loss / (static_cast<double>(n) *
                                static_cast<double>(dimension));
  }
  fitted_ = true;

  std::vector<double> scores(n);
  reconstruction_errors(data, scores);
  for (double& score : scores) score = -score;
  threshold_ = -quantile_threshold(scores, config_.outlier_fraction);
}

void AutoencoderModel::reconstruction_errors(const util::FeatureMatrix& rows,
                                             std::span<double> out) const {
  std::vector<double> input(std::max(rows.cols(), dimension_));
  std::vector<double> hidden, output;
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    const auto indices = rows.row_indices(r);
    if (!indices.empty() && indices.back() >= dimension_) {
      throw std::out_of_range{"AutoencoderModel: feature index out of range"};
    }
    rows.copy_row_dense(r, input);
    forward(input, hidden, output);
    double sum = 0.0;
    for (std::size_t d = 0; d < dimension_; ++d) {
      const double err = output[d] - input[d];
      sum += err * err;
    }
    out[r] = sum / static_cast<double>(dimension_);
  }
}

void AutoencoderModel::decision_values(const util::FeatureMatrix& windows,
                                       std::span<double> out) const {
  check_decision_call(fitted_, windows, out);
  reconstruction_errors(windows, out);
  for (double& value : out) value = threshold_ - value;
}

}  // namespace wtp::oneclass
