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
  if (!view.row_offsets.empty()) {
    matrix.cols_ = view.cols;
    matrix.sq_norms_ = view.sq_norms;
    matrix.rows_ = CsrRows{view.indices.data(), view.values.data(),
                           view.row_offsets.data(), view.nnz()};
  }
  matrix.storage_ = std::move(owner);
  return matrix;
}

FeatureMatrix FeatureMatrix::borrow(const BitsetView& bits,
                                    std::span<const double> sq_norms,
                                    std::shared_ptr<const void> owner) {
  if (sq_norms.size() != bits.row_count) {
    throw std::invalid_argument{"FeatureMatrix::borrow: " +
                                std::to_string(sq_norms.size()) +
                                " norms for " + std::to_string(bits.row_count) +
                                " bitset rows"};
  }
  if (bits.row_count == 0) return borrow(CsrView{}, std::move(owner));
  FeatureMatrix matrix;
  matrix.cols_ = bits.cols;
  matrix.sq_norms_ = sq_norms;
  matrix.rows_ = StoredBitset{bits.words.data(), bits.numeric_cols.data(),
                              bits.numeric_values.data(),
                              bits.numeric_cols.size()};
  matrix.storage_ = std::move(owner);
  return matrix;
}

FeatureMatrix::FeatureMatrix(const FeatureMatrix& other)
    : cols_{other.cols_},
      sq_norms_{other.sq_norms_},
      rows_{other.rows_},
      storage_{other.storage_} {
  const std::scoped_lock lock{other.derived_mutex_};
  derived_ = other.derived_;  // immutable once set — share it
}

FeatureMatrix::FeatureMatrix(FeatureMatrix&& other) noexcept
    : cols_{std::exchange(other.cols_, 0)},
      sq_norms_{std::exchange(other.sq_norms_, {})},
      rows_{std::exchange(other.rows_, kNoRows)},
      storage_{std::move(other.storage_)},
      derived_{std::move(other.derived_)} {}

FeatureMatrix& FeatureMatrix::operator=(const FeatureMatrix& other) {
  if (this == &other) return *this;
  cols_ = other.cols_;
  sq_norms_ = other.sq_norms_;
  rows_ = other.rows_;
  storage_ = other.storage_;
  std::shared_ptr<const Derived> shared;
  {
    const std::scoped_lock lock{other.derived_mutex_};
    shared = other.derived_;
  }
  const std::scoped_lock lock{derived_mutex_};
  derived_ = std::move(shared);
  return *this;
}

FeatureMatrix& FeatureMatrix::operator=(FeatureMatrix&& other) noexcept {
  if (this == &other) return *this;
  cols_ = std::exchange(other.cols_, 0);
  sq_norms_ = std::exchange(other.sq_norms_, {});
  rows_ = std::exchange(other.rows_, kNoRows);
  storage_ = std::move(other.storage_);
  derived_ = std::move(other.derived_);
  return *this;
}

bool operator==(const FeatureMatrix& a, const FeatureMatrix& b) {
  const CsrView x = a.csr();
  const CsrView y = b.csr();
  return x.cols == y.cols && std::ranges::equal(x.indices, y.indices) &&
         std::ranges::equal(x.values, y.values) &&
         std::ranges::equal(x.row_offsets, y.row_offsets) &&
         std::ranges::equal(x.sq_norms, y.sq_norms);
}

template <class Make>
std::shared_ptr<const FeatureMatrix::Derived> FeatureMatrix::derive(
    Make&& make) const {
  const std::scoped_lock lock{derived_mutex_};
  if (!derived_) derived_ = make();
  return derived_;
}

BitsetView FeatureMatrix::stored_bitset() const noexcept {
  const StoredBitset& stored = *std::get_if<StoredBitset>(&rows_);
  const std::size_t n = rows();
  const std::size_t words_per_row = (cols_ + 63) / 64;
  return BitsetView{cols_,
                    n,
                    words_per_row,
                    {stored.words, n * words_per_row},
                    {stored.numeric_cols, stored.numeric_count},
                    {stored.numeric_values, n * stored.numeric_count}};
}

const CsrView& FeatureMatrix::decoded_csr() const {
  // derived_ holds the state for the matrix's lifetime, so the reference
  // outlives the local handle.
  return derive([this] {
           auto state = std::make_shared<Derived>();
           state->decoded.decode(stored_bitset());
           state->decoded_view = state->decoded.view(cols_, sq_norms_);
           return std::shared_ptr<const Derived>{std::move(state)};
         })
      ->decoded_view;
}

std::optional<BitsetView> FeatureMatrix::bitset() const {
  if (bitset_stored()) return stored_bitset();
  const std::shared_ptr<const Derived> state = derive([this] {
    auto built = std::make_shared<Derived>();
    built->bitset = BitsetStorage::build(csr());
    return std::shared_ptr<const Derived>{std::move(built)};
  });
  if (!state->bitset) return std::nullopt;
  return state->bitset->view();
}

void FeatureMatrix::ensure_bitset(std::span<const std::uint32_t> numeric_cols) {
  if (bitset_stored()) {
    if (std::ranges::equal(stored_bitset().numeric_cols, numeric_cols)) return;
    throw std::logic_error{
        "FeatureMatrix::ensure_bitset: a bitset-stored matrix keeps its layout"};
  }
  auto built = std::make_shared<Derived>();
  built->bitset = BitsetStorage::build(csr(), numeric_cols);
  const std::scoped_lock lock{derived_mutex_};
  derived_ = std::move(built);
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

void FeatureMatrixBuilder::add(std::size_t index, double value) {
  if (index > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument{"FeatureMatrixBuilder: index exceeds 32-bit range"};
  }
  pending_.push_back({index, value});
}

void FeatureMatrixBuilder::finish_row() {
  SparseVector::normalize(pending_);
  append(pending_);
  pending_.clear();
}

void FeatureMatrixBuilder::add_row(const SparseVector& row) {
  append(row.entries());
}

void FeatureMatrixBuilder::append(std::span<const SparseVector::Entry> row) {
  double sq_norm = 0.0;
  for (const auto& entry : row) {
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
