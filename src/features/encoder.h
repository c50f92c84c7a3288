// Per-transaction feature encoding (paper §III-B).
//
// A single transaction maps to a sparse binary/numeric vector in the schema
// layout; the window aggregator combines several of these into one training
// sample.  Out-of-vocabulary categorical values contribute no column.
//
// An encoding has at most one entry per feature group, and the groups are
// laid out in encode order, so it is at most kFeatureGroupCount entries in
// ascending column order.  It is held inline (EncodedTransaction): encoding
// a transaction, and buffering it in an open window, allocates nothing.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "features/schema.h"
#include "log/transaction.h"
#include "util/sparse_vector.h"

namespace wtp::features {

/// One encoded transaction: up to kMaxEntries non-zero entries, strictly
/// ascending by column, stored inline.
class EncodedTransaction {
 public:
  using Entry = util::SparseVector::Entry;
  static constexpr std::size_t kMaxEntries = kFeatureGroupCount;

  [[nodiscard]] std::span<const Entry> entries() const noexcept {
    return {entries_.data(), size_};
  }
  [[nodiscard]] std::size_t nnz() const noexcept { return size_; }

  /// Appends an entry.  The caller keeps the class invariant: fewer than
  /// kMaxEntries entries so far, `column` above the last one, `value`
  /// non-zero (TransactionEncoder and the aggregator's restore_state, which
  /// checks all three, are the writers).
  void push_back(std::size_t column, double value) noexcept {
    entries_[size_++] = {column, value};
  }

 private:
  std::array<Entry, kMaxEntries> entries_{};
  std::uint8_t size_ = 0;
};

class TransactionEncoder {
 public:
  /// The schema must outlive the encoder.
  explicit TransactionEncoder(const FeatureSchema& schema) : schema_{&schema} {}

  /// Encodes one transaction.  Matches the paper's example: bag-of-words
  /// presence for action/scheme/category/supertype/subtype/application, the
  /// private-destination flag, the verified-reputation flag and the numeric
  /// reputation risk.
  [[nodiscard]] EncodedTransaction encode(const log::WebTransaction& txn) const;

  [[nodiscard]] const FeatureSchema& schema() const noexcept { return *schema_; }

 private:
  const FeatureSchema* schema_;
};

}  // namespace wtp::features
