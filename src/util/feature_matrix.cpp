#include "util/feature_matrix.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace wtp::util {

namespace {

/// Scratch for dot_all: a dense query expansion reused across calls.  The
/// buffer is kept all-zero between calls (scatter, use, unscatter), so
/// growing it only zero-fills the new tail.  thread_local keeps concurrent
/// scorers (serve shards, grid-search workers) independent.
std::vector<double>& dense_scratch(std::size_t cols) {
  thread_local std::vector<double> scratch;
  if (scratch.size() < cols) scratch.resize(cols, 0.0);
  return scratch;
}

void check_index(std::size_t index, std::size_t cols) {
  if (index >= cols) {
    throw std::invalid_argument{"FeatureMatrix: row index " + std::to_string(index) +
                                " >= cols " + std::to_string(cols)};
  }
  if (index > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument{"FeatureMatrix: index exceeds 32-bit range"};
  }
}

}  // namespace

FeatureMatrix FeatureMatrix::from_rows(std::span<const SparseVector> rows,
                                       std::size_t cols) {
  FeatureMatrixBuilder builder;
  for (const auto& row : rows) builder.add_row(row);
  return builder.build(cols);
}

FeatureMatrix FeatureMatrix::borrow(CsrView view,
                                    std::shared_ptr<const void> owner) {
  FeatureMatrix matrix;
  if (!view.row_offsets.empty()) matrix.view_ = view;
  matrix.storage_ = std::move(owner);
  return matrix;
}

FeatureMatrix::FeatureMatrix(const FeatureMatrix& other)
    : view_{other.view_}, storage_{other.storage_} {
  const std::scoped_lock lock{other.bitset_mutex_};
  bitset_ = other.bitset_;  // the slot is immutable once set — share it
}

FeatureMatrix::FeatureMatrix(FeatureMatrix&& other) noexcept
    : view_{std::exchange(other.view_, kEmptyView)},
      storage_{std::move(other.storage_)},
      bitset_{std::move(other.bitset_)} {}

FeatureMatrix& FeatureMatrix::operator=(const FeatureMatrix& other) {
  if (this == &other) return *this;
  view_ = other.view_;
  storage_ = other.storage_;
  std::shared_ptr<const BitsetSlot> shared;
  {
    const std::scoped_lock lock{other.bitset_mutex_};
    shared = other.bitset_;
  }
  const std::scoped_lock lock{bitset_mutex_};
  bitset_ = std::move(shared);
  return *this;
}

FeatureMatrix& FeatureMatrix::operator=(FeatureMatrix&& other) noexcept {
  if (this == &other) return *this;
  view_ = std::exchange(other.view_, kEmptyView);
  storage_ = std::move(other.storage_);
  bitset_ = std::move(other.bitset_);
  return *this;
}

bool operator==(const FeatureMatrix& a, const FeatureMatrix& b) {
  const CsrView& x = a.view_;
  const CsrView& y = b.view_;
  return x.cols == y.cols && std::ranges::equal(x.indices, y.indices) &&
         std::ranges::equal(x.values, y.values) &&
         std::ranges::equal(x.row_offsets, y.row_offsets) &&
         std::ranges::equal(x.sq_norms, y.sq_norms);
}

const BitsetStorage* FeatureMatrix::bitset() const {
  const std::scoped_lock lock{bitset_mutex_};
  if (!bitset_) {
    auto slot = std::make_shared<BitsetSlot>();
    slot->storage = BitsetStorage::build(view());
    bitset_ = std::move(slot);
  }
  return bitset_->storage ? &*bitset_->storage : nullptr;
}

void FeatureMatrix::ensure_bitset(std::span<const std::uint32_t> numeric_cols) {
  auto slot = std::make_shared<BitsetSlot>();
  slot->storage = BitsetStorage::build(view(), numeric_cols);
  const std::scoped_lock lock{bitset_mutex_};
  bitset_ = std::move(slot);
}

SparseVector FeatureMatrix::row_vector(std::size_t i) const {
  std::vector<SparseVector::Entry> entries;
  const auto indices = row_indices(i);
  const auto values = row_values(i);
  entries.reserve(indices.size());
  for (std::size_t k = 0; k < indices.size(); ++k) {
    entries.push_back({indices[k], values[k]});
  }
  return SparseVector{std::move(entries)};
}

void FeatureMatrix::copy_row_dense(std::size_t i, std::span<double> out) const {
  if (out.size() < cols()) {
    throw std::invalid_argument{"FeatureMatrix::copy_row_dense: buffer holds " +
                                std::to_string(out.size()) + " < cols " +
                                std::to_string(cols())};
  }
  std::fill(out.begin(), out.end(), 0.0);
  const auto indices = row_indices(i);
  const auto values = row_values(i);
  for (std::size_t k = 0; k < indices.size(); ++k) out[indices[k]] = values[k];
}

void CsrView::dot_all(std::span<const std::uint32_t> query_indices,
                      std::span<const double> query_values,
                      std::span<double> out) const {
  auto& dense = dense_scratch(cols);
  for (std::size_t k = 0; k < query_indices.size(); ++k) {
    if (query_indices[k] < cols) dense[query_indices[k]] = query_values[k];
  }
  const std::size_t n = rows();
  for (std::size_t r = 0; r < n; ++r) {
    const std::uint32_t* idx = indices.data() + row_offsets[r];
    const double* val = values.data() + row_offsets[r];
    const std::size_t len = row_offsets[r + 1] - row_offsets[r];
    double sum = 0.0;
    for (std::size_t k = 0; k < len; ++k) sum += val[k] * dense[idx[k]];
    out[r] = sum;
  }
  for (const std::uint32_t index : query_indices) {
    if (index < cols) dense[index] = 0.0;
  }
}

void CsrView::dot_all(const SparseVector& query, std::span<double> out) const {
  auto& dense = dense_scratch(cols);
  for (const auto& entry : query.entries()) {
    if (entry.index < cols) dense[entry.index] = entry.value;
  }
  const std::size_t n = rows();
  for (std::size_t r = 0; r < n; ++r) {
    const std::uint32_t* idx = indices.data() + row_offsets[r];
    const double* val = values.data() + row_offsets[r];
    const std::size_t len = row_offsets[r + 1] - row_offsets[r];
    double sum = 0.0;
    for (std::size_t k = 0; k < len; ++k) sum += val[k] * dense[idx[k]];
    out[r] = sum;
  }
  for (const auto& entry : query.entries()) {
    if (entry.index < cols) dense[entry.index] = 0.0;
  }
}

void FeatureMatrixBuilder::add(std::size_t index, double value) {
  if (index > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument{"FeatureMatrixBuilder: index exceeds 32-bit range"};
  }
  pending_.push_back({index, value});
}

void FeatureMatrixBuilder::finish_row() {
  // Normalize exactly like SparseVector: sort, sum duplicates, drop zeros.
  add_row(SparseVector{std::move(pending_)});
  pending_ = {};
}

void FeatureMatrixBuilder::add_row(const SparseVector& row) {
  double sq_norm = 0.0;
  for (const auto& entry : row.entries()) {
    if (entry.index > std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument{"FeatureMatrixBuilder: index exceeds 32-bit range"};
    }
    storage_.indices.push_back(static_cast<std::uint32_t>(entry.index));
    storage_.values.push_back(entry.value);
    sq_norm += entry.value * entry.value;
  }
  storage_.row_offsets.push_back(storage_.indices.size());
  storage_.sq_norms.push_back(sq_norm);
}

void FeatureMatrixBuilder::add_row(const FeatureMatrix& src, std::size_t row) {
  const auto indices = src.row_indices(row);
  const auto values = src.row_values(row);
  storage_.indices.insert(storage_.indices.end(), indices.begin(), indices.end());
  storage_.values.insert(storage_.values.end(), values.begin(), values.end());
  storage_.row_offsets.push_back(storage_.indices.size());
  storage_.sq_norms.push_back(src.sq_norm(row));
}

FeatureMatrix FeatureMatrixBuilder::build(std::size_t cols) {
  if (!pending_.empty()) finish_row();
  std::size_t max_index_plus_one = 0;
  for (const std::uint32_t index : storage_.indices) {
    max_index_plus_one = std::max(max_index_plus_one, std::size_t{index} + 1);
  }
  if (cols == 0) {
    cols = max_index_plus_one;
  } else if (max_index_plus_one > cols) {
    check_index(max_index_plus_one - 1, cols);
  }
  auto storage = std::make_shared<const FeatureMatrix::Storage>(
      std::exchange(storage_, FeatureMatrix::Storage{}));
  const CsrView view{cols, storage->indices, storage->values,
                     storage->row_offsets, storage->sq_norms};
  return FeatureMatrix::borrow(view, std::move(storage));
}

}  // namespace wtp::util
