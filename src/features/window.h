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
// sessions run it one transaction at a time.  Window boundaries come from
// WindowGrid below, which core::ProfilingDataset's batch rows use too, and
// every window vector comes from merge_window below.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <ranges>
#include <span>
#include <utility>
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

/// The one window-boundary rule, shared by the streaming fold and the
/// dataset's batch rows.  Window k of a stream whose first transaction is
/// at `origin` covers [origin + k*S, origin + k*S + D).
struct WindowGrid {
  WindowConfig config;
  util::UnixSeconds origin = 0;

  [[nodiscard]] util::UnixSeconds start(std::int64_t k) const noexcept {
    return origin + k * config.shift_s;
  }
  [[nodiscard]] util::UnixSeconds end(std::int64_t k) const noexcept {
    return start(k) + config.duration_s;
  }

  /// The first non-empty window at or after window k of a time-sorted
  /// sequence whose i-th timestamp is timestamp(i), from position `lo` up
  /// to `n`.  Moves `lo` past the transactions before that window's start,
  /// which no window from k on holds, and returns the window's index, or
  /// std::nullopt once no transaction is left.  Empty windows are skipped:
  /// when window k does not hold timestamp(lo), the next candidate is the
  /// first window that ends after it, which holds it too (S <= D).
  template <class Timestamp>
  [[nodiscard]] std::optional<std::int64_t> seek(std::int64_t k, std::size_t& lo,
                                                 std::size_t n,
                                                 Timestamp&& timestamp) const {
    while (lo < n && timestamp(lo) < start(k)) ++lo;
    if (lo == n) return std::nullopt;
    const util::UnixSeconds next_txn = timestamp(lo);
    if (next_txn < end(k)) return k;
    // The smallest k' with start(k') > next_txn - duration.
    const std::int64_t jump =
        (next_txn - config.duration_s - origin) / config.shift_s + 1;
    return std::max(k + 1, jump);
  }

  /// Calls visit(lo, hi) with the positions [lo, hi) of each non-empty
  /// window's transactions, window by window, over a time-sorted sequence
  /// of `n` timestamps timestamp(i).
  template <class Timestamp, class Visit>
  void walk(std::size_t n, Timestamp&& timestamp, Visit&& visit) const {
    std::size_t lo = 0;
    std::size_t hi = 0;
    for (std::optional<std::int64_t> k = seek(0, lo, n, timestamp); k;
         k = seek(*k + 1, lo, n, timestamp)) {
      hi = std::max(hi, lo);
      while (hi < n && timestamp(hi) < end(*k)) ++hi;
      visit(lo, hi);
    }
  }
};

namespace detail {

/// Dense per-column scratch behind merge_window: a running max and an epoch
/// tag per column, and the list of columns the current window touched.
/// One per thread (merge_scratch), never one per session: a session holds
/// open windows for a whole device, and 10^5 devices x 843 columns x 16
/// bytes would not fit.
struct MergeScratch {
  std::vector<double> max;
  std::vector<std::uint64_t> tag;       ///< column's last epoch
  std::vector<std::uint32_t> touched;   ///< this epoch's columns
  std::vector<util::SparseVector::Entry> row;  ///< merge_window's staging
  std::uint64_t epoch = 0;
  std::size_t dimension = 0;  ///< the current window's schema dimension

  /// Starts a window over `columns` columns.
  void begin(std::size_t columns);
  /// Disjunction for binary columns: the column becomes max(current, value).
  void merge_max(std::size_t column, double value) {
    if (column >= dimension) throw_out_of_range(column);
    if (tag[column] != epoch) {
      tag[column] = epoch;
      max[column] = value;
      touched.push_back(static_cast<std::uint32_t>(column));
    } else {
      max[column] = std::max(max[column], value);
    }
  }
  [[noreturn]] void throw_out_of_range(std::size_t column) const;
};

/// This thread's scratch.
[[nodiscard]] MergeScratch& merge_scratch();

}  // namespace detail

/// Merges the encoded transactions of one window, handing its entries to
/// `sink(column, value)`: disjunction (max) for bag-of-words columns, the
/// mean over the window's transactions for numeric columns.  The numeric
/// entries come first, in transaction order, one per transaction that sets
/// the column (value / count); then every bag-of-words column the window
/// touched once, ascending, with its max.  That sequence, normalized by
/// SparseVector::normalize, is the window's vector.  Throws
/// std::out_of_range for a column at or past the schema's dimension.
template <std::ranges::forward_range Encoded, class Sink>
void merge_window(Encoded&& encoded, const FeatureSchema& schema, Sink&& sink) {
  const auto count = std::ranges::distance(encoded);
  if (count == 0) return;
  detail::MergeScratch& scratch = detail::merge_scratch();
  scratch.begin(schema.dimension());
  const double inverse_count = 1.0 / static_cast<double>(count);
  for (const EncodedTransaction& txn : encoded) {
    for (const auto& entry : txn.entries()) {
      if (schema.is_numeric_column(entry.index)) {
        sink(entry.index, entry.value * inverse_count);
      } else {
        scratch.merge_max(entry.index, entry.value);
      }
    }
  }
  std::sort(scratch.touched.begin(), scratch.touched.end());
  for (const std::uint32_t column : scratch.touched) sink(column, scratch.max[column]);
}

/// The window's vector (merge_window's sequence, normalized).  An empty
/// range gives an empty vector.
template <std::ranges::forward_range Encoded>
[[nodiscard]] util::SparseVector merge_window(Encoded&& encoded,
                                              const FeatureSchema& schema) {
  std::vector<util::SparseVector::Entry>& row = detail::merge_scratch().row;
  row.clear();
  merge_window(std::forward<Encoded>(encoded), schema,
               [&row](std::size_t column, double value) {
                 row.push_back({column, value});
               });
  util::SparseVector::normalize(row);
  // Normalized already, so the vector keeps it as is, at its exact size.
  return util::SparseVector{std::vector<util::SparseVector::Entry>(row.begin(), row.end())};
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
