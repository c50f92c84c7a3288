// Sliding-window aggregation of transactions into feature vectors
// (paper §III-C).
//
// Windows have duration D and move by a shifting factor S <= D, so
// consecutive windows overlap by D-S seconds (the paper retains D=60s,
// S=30s: a new feature vector every 30 seconds).  All transactions of one
// user (or one host) falling in a window are aggregated into a single
// vector: bag-of-words columns by logical disjunction, numeric columns
// (private flag, reputation risk, reputation verified) by averaging over the
// window's transactions.  Empty windows produce no vector.
//
// There is one window fold, StreamingWindowAggregator (features/streaming.h):
// WindowAggregator::aggregate runs it over a whole sequence, and the serving
// sessions run it one transaction at a time.  Every window vector comes from
// merge_window below.
#pragma once

#include <ranges>
#include <span>
#include <vector>

#include "features/encoder.h"
#include "features/schema.h"
#include "log/transaction.h"
#include "util/sparse_vector.h"
#include "util/time.h"

namespace wtp::features {

struct WindowConfig {
  util::UnixSeconds duration_s = 60;  ///< D
  util::UnixSeconds shift_s = 30;     ///< S, must satisfy 0 < S <= D

  friend bool operator==(const WindowConfig&, const WindowConfig&) = default;
};

/// Throws std::invalid_argument unless 0 < S <= D.  The one geometry check:
/// both aggregators and both profile store readers call it.
void check_window_config(const WindowConfig& config);

/// One aggregated transaction window.
struct Window {
  util::UnixSeconds start = 0;  ///< inclusive
  util::UnixSeconds end = 0;    ///< exclusive (start + D)
  std::size_t transaction_count = 0;
  util::SparseVector features;
};

/// Merges the encoded transactions of one window into its vector:
/// disjunction (max) for bag-of-words columns, the mean over the window's
/// transactions for numeric columns.  An empty range gives an empty vector.
template <std::ranges::forward_range Encoded>
[[nodiscard]] util::SparseVector merge_window(Encoded&& encoded,
                                              const FeatureSchema& schema) {
  const auto count = std::ranges::distance(encoded);
  if (count == 0) return {};
  util::SparseAccumulator acc;
  const double inverse_count = 1.0 / static_cast<double>(count);
  for (const util::SparseVector& vector : encoded) {
    for (const auto& entry : vector.entries()) {
      if (schema.is_numeric_column(entry.index)) {
        acc.add(entry.index, entry.value * inverse_count);
      } else {
        acc.max(entry.index, entry.value);
      }
    }
  }
  return acc.build();
}

class WindowAggregator {
 public:
  /// Throws std::invalid_argument unless 0 < S <= D.  The schema must
  /// outlive the aggregator.
  WindowAggregator(const FeatureSchema& schema, WindowConfig config);

  /// Aggregates a time-sorted transaction sequence belonging to a single
  /// user or host: pushes every transaction through a fresh
  /// StreamingWindowAggregator, then flushes it.  Window 0 starts at the
  /// first transaction's timestamp; empty windows are skipped.  Throws
  /// std::invalid_argument on out-of-order input.
  [[nodiscard]] std::vector<Window> aggregate(
      std::span<const log::WebTransaction> txns) const;

  /// Aggregates one explicit set of transactions into a single feature
  /// vector, whatever their timestamps (used by tests mirroring the paper's
  /// worked example, and by the composition-time benchmark, Fig. 5).
  [[nodiscard]] util::SparseVector aggregate_single(
      std::span<const log::WebTransaction> txns) const;

  [[nodiscard]] const WindowConfig& config() const noexcept { return config_; }
  [[nodiscard]] const FeatureSchema& schema() const noexcept { return *schema_; }

 private:
  const FeatureSchema* schema_;
  WindowConfig config_;
};

/// Convenience: strips the timing metadata, moving out just the vectors.
[[nodiscard]] std::vector<util::SparseVector> window_vectors(std::vector<Window> windows);

}  // namespace wtp::features
