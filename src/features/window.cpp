#include "features/window.h"

#include <stdexcept>
#include <string>

#include "features/streaming.h"

namespace wtp::features {

void check_window_config(const WindowConfig& config) {
  if (config.shift_s <= 0 || config.duration_s <= 0 ||
      config.shift_s > config.duration_s) {
    throw std::invalid_argument{
        "window: require 0 < shift <= duration (got S=" +
        std::to_string(config.shift_s) + ", D=" + std::to_string(config.duration_s) + ")"};
  }
}

namespace detail {

void MergeScratch::begin(std::size_t columns) {
  if (tag.size() < columns) {
    // New columns carry tag 0, which no epoch has (epochs start at 1).
    tag.resize(columns, 0);
    max.resize(columns, 0.0);
  }
  dimension = columns;
  ++epoch;
  touched.clear();
}

void MergeScratch::throw_out_of_range(std::size_t column) const {
  throw std::out_of_range{"merge_window: column " + std::to_string(column) +
                          " >= dimension " + std::to_string(dimension)};
}

MergeScratch& merge_scratch() {
  thread_local MergeScratch scratch;
  return scratch;
}

}  // namespace detail

WindowAggregator::WindowAggregator(const FeatureSchema& schema, WindowConfig config)
    : schema_{&schema}, config_{config} {
  check_window_config(config);
}

util::SparseVector WindowAggregator::aggregate_single(
    std::span<const log::WebTransaction> txns) const {
  const TransactionEncoder encoder{*schema_};
  return merge_window(
      txns | std::views::transform([&encoder](const log::WebTransaction& txn) {
        return encoder.encode(txn);
      }),
      *schema_);
}

std::vector<Window> WindowAggregator::aggregate(
    std::span<const log::WebTransaction> txns) const {
  StreamingWindowAggregator fold{*schema_, config_};
  std::vector<Window> windows;
  for (const auto& txn : txns) {
    for (auto& window : fold.push(txn)) windows.push_back(std::move(window));
  }
  for (auto& window : fold.flush()) windows.push_back(std::move(window));
  return windows;
}

std::vector<util::SparseVector> window_vectors(std::vector<Window> windows) {
  std::vector<util::SparseVector> vectors;
  vectors.reserve(windows.size());
  for (auto& window : windows) vectors.push_back(std::move(window.features));
  return vectors;
}

}  // namespace wtp::features
