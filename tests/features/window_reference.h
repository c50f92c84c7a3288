// Brute-force oracle for the window fold (paper §III-C), shared by the
// window property test, the streaming aggregator tests, the dataset's
// batch-row tests and bench/training_throughput's window check.
//
// It shares only the encoder and SparseVector::normalize with the fold.
// Window boundaries come from walking every candidate window index, and the
// merge is the sort-based one the fold used before its dense per-thread
// scratch (SparseAccumulator below), so a fault in the fold's grid or merge
// shows as a difference.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "features/encoder.h"
#include "features/window.h"
#include "util/sparse_vector.h"

namespace wtp::features::testing {

/// Accumulates values by index and emits a normalized SparseVector: summed
/// entries in the order added, then the maxed entries deduplicated by
/// maximum in ascending index order, all through the SparseVector
/// constructor.
class SparseAccumulator {
 public:
  /// value is added to the current coefficient at index.
  void add(std::size_t index, double value) { entries_.push_back({index, value}); }
  /// coefficient becomes max(current, value) — the "logical disjunction"
  /// aggregation for binary bag-of-words features.
  void max(std::size_t index, double value) { maxed_.push_back({index, value}); }

  /// Emits the accumulated vector and resets the accumulator.
  [[nodiscard]] util::SparseVector build() {
    std::sort(maxed_.begin(), maxed_.end(),
              [](const auto& a, const auto& b) { return a.index < b.index; });
    std::vector<util::SparseVector::Entry> max_merged;
    for (const auto& entry : maxed_) {
      if (!max_merged.empty() && max_merged.back().index == entry.index) {
        max_merged.back().value = std::max(max_merged.back().value, entry.value);
      } else {
        max_merged.push_back(entry);
      }
    }
    for (const auto& entry : max_merged) entries_.push_back(entry);
    util::SparseVector result{std::move(entries_)};
    entries_ = {};
    maxed_ = {};
    return result;
  }

 private:
  std::vector<util::SparseVector::Entry> entries_;  // unsorted, possibly duplicated
  std::vector<util::SparseVector::Entry> maxed_;
};

/// The window vector of `txns`, whatever their timestamps: numeric columns
/// averaged, bag-of-words columns by disjunction.
inline util::SparseVector reference_merge(const FeatureSchema& schema,
                                          std::span<const log::WebTransaction> txns) {
  if (txns.empty()) return {};
  const TransactionEncoder encoder{schema};
  SparseAccumulator acc;
  const double inverse_count = 1.0 / static_cast<double>(txns.size());
  for (const auto& txn : txns) {
    const EncodedTransaction encoded = encoder.encode(txn);
    for (const auto& entry : encoded.entries()) {
      if (schema.is_numeric_column(entry.index)) {
        acc.add(entry.index, entry.value * inverse_count);
      } else {
        acc.max(entry.index, entry.value);
      }
    }
  }
  return acc.build();
}

/// Reference implementation over a time-sorted sequence: walks every
/// candidate window index from the first transaction, finds the
/// transactions inside each window by binary search, and re-aggregates them
/// through reference_merge.
inline std::vector<Window> reference_aggregate(
    const FeatureSchema& schema, const WindowConfig& config,
    std::span<const log::WebTransaction> txns) {
  std::vector<Window> windows;
  if (txns.empty()) return windows;
  const util::UnixSeconds origin = txns.front().timestamp;
  const util::UnixSeconds last = txns.back().timestamp;
  for (std::int64_t k = 0;; ++k) {
    const util::UnixSeconds start = origin + k * config.shift_s;
    if (start > last) break;
    const util::UnixSeconds end = start + config.duration_s;
    const auto before = [](util::UnixSeconds bound) {
      return [bound](const log::WebTransaction& txn) { return txn.timestamp < bound; };
    };
    const auto lo = std::ranges::partition_point(txns, before(start));
    const auto hi = std::ranges::partition_point(txns, before(end));
    const std::span inside{lo, hi};
    if (inside.empty()) continue;
    Window window;
    window.start = start;
    window.end = end;
    window.transaction_count = inside.size();
    window.features = reference_merge(schema, inside);
    windows.push_back(std::move(window));
  }
  return windows;
}

/// Whether two vectors hold the same entries bit for bit (operator== would
/// call 0.0 and -0.0 equal).
inline bool bitwise_equal(const util::SparseVector& a, const util::SparseVector& b) {
  const auto x = a.entries();
  const auto y = b.entries();
  return x.size() == y.size() &&
         std::equal(x.begin(), x.end(), y.begin(), [](const auto& p, const auto& q) {
           return p.index == q.index &&
                  std::bit_cast<std::uint64_t>(p.value) ==
                      std::bit_cast<std::uint64_t>(q.value);
         });
}

}  // namespace wtp::features::testing
