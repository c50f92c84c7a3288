// Brute-force oracle for the window fold (paper §III-C), shared by the
// window property test and the streaming aggregator tests.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "features/window.h"

namespace wtp::features::testing {

/// O(windows x transactions) reference implementation: walks every candidate
/// window index from the first transaction and re-aggregates the raw
/// transactions inside it through aggregate_single.
inline std::vector<Window> reference_aggregate(
    const FeatureSchema& schema, const WindowConfig& config,
    std::span<const log::WebTransaction> txns) {
  std::vector<Window> windows;
  if (txns.empty()) return windows;
  const WindowAggregator single{schema, config};
  const util::UnixSeconds origin = txns.front().timestamp;
  const util::UnixSeconds last = txns.back().timestamp;
  for (std::int64_t k = 0;; ++k) {
    const util::UnixSeconds start = origin + k * config.shift_s;
    if (start > last) break;
    const util::UnixSeconds end = start + config.duration_s;
    std::vector<log::WebTransaction> inside;
    for (const auto& txn : txns) {
      if (txn.timestamp >= start && txn.timestamp < end) inside.push_back(txn);
    }
    if (inside.empty()) continue;
    Window window;
    window.start = start;
    window.end = end;
    window.transaction_count = inside.size();
    window.features = single.aggregate_single(inside);
    windows.push_back(std::move(window));
  }
  return windows;
}

}  // namespace wtp::features::testing
