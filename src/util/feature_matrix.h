// FeatureMatrix: immutable CSR batch of sparse feature rows — the canonical
// data plane shared by training (svm/), the one-class alternatives
// (oneclass/), the grid searches (core/) and online scoring (serve/).
//
// Layout is classic compressed-sparse-row: one contiguous `indices` array,
// one contiguous `values` array, and `row_offsets` (length rows+1) slicing
// both per row.  Per-row squared Euclidean norms are computed once at build
// time so every RBF-style consumer shares them instead of recomputing.
// Rows keep SparseVector's invariants (sorted indices, no duplicates, no
// explicit zeros), which makes row-wise dot products bit-identical to
// SparseVector::dot's merge join.
//
// Storage is owned or borrowed.  An owned matrix (FeatureMatrixBuilder,
// from_rows) keeps its CSR arrays in a heap block; a borrowed one
// (FeatureMatrix::borrow) reads arrays that live elsewhere — a
// memory-mapped profile store — and holds a handle that keeps them alive.
// A borrowed matrix may be stored as a bitset block only (a v3 model
// blob's support vectors, DESIGN §10): rows(), cols(), sq_norms() and
// bitset() read the block directly, and the CSR accessors decode the rows
// once, on first use.  The arrays never change after construction, so
// copies share the storage instead of duplicating it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "util/bitset_view.h"
#include "util/sparse_vector.h"

namespace wtp::util {

/// Non-owning CSR view: the storage contract of FeatureMatrix (sorted
/// per-row indices, cached squared norms) over memory owned elsewhere — a
/// FeatureMatrix's storage, or a memory-mapped profile file (svm/model_io
/// blob path).
/// Copyable/trivial; row accessors mirror FeatureMatrix exactly, and
/// dot_all shares the same implementation so kernel rows computed through a
/// view are bit-identical to the owning path.
struct CsrView {
  std::size_t cols = 0;
  std::span<const std::uint32_t> indices;
  std::span<const double> values;
  std::span<const std::size_t> row_offsets;  ///< length rows+1 (or empty)
  std::span<const double> sq_norms;          ///< length rows

  [[nodiscard]] std::size_t rows() const noexcept {
    return row_offsets.empty() ? 0 : row_offsets.size() - 1;
  }
  [[nodiscard]] std::size_t nnz() const noexcept { return values.size(); }
  [[nodiscard]] bool empty() const noexcept { return rows() == 0; }
  [[nodiscard]] std::span<const std::uint32_t> row_indices(std::size_t i) const noexcept {
    return indices.subspan(row_offsets[i], row_offsets[i + 1] - row_offsets[i]);
  }
  [[nodiscard]] std::span<const double> row_values(std::size_t i) const noexcept {
    return values.subspan(row_offsets[i], row_offsets[i + 1] - row_offsets[i]);
  }
  [[nodiscard]] double sq_norm(std::size_t i) const noexcept { return sq_norms[i]; }

  /// View of rows [begin, begin + count).  Row offsets stay absolute into
  /// the shared indices/values spans, so row accessors and dot_all work
  /// unchanged on the slice.
  [[nodiscard]] CsrView rows_slice(std::size_t begin, std::size_t count) const noexcept {
    return CsrView{cols, indices, values, row_offsets.subspan(begin, count + 1),
                   sq_norms.subspan(begin, count)};
  }

  /// Dot product of every row with a sparse query, written to out[0..rows).
  /// Identical implementation (and therefore identical IEEE sums) to
  /// FeatureMatrix::dot_all.
  void dot_all(std::span<const std::uint32_t> query_indices,
               std::span<const double> query_values, std::span<double> out) const;
};

class FeatureMatrix {
 public:
  /// Zero-row, zero-column matrix.
  FeatureMatrix() = default;

  /// Builds from normalized sparse rows.  `cols` fixes the column count;
  /// when 0 it is deduced as max index + 1 over all rows.  Throws
  /// std::invalid_argument when a row index exceeds an explicit `cols`.
  [[nodiscard]] static FeatureMatrix from_rows(
      std::span<const SparseVector> rows, std::size_t cols = 0);

  /// A matrix over storage it does not own: `view`'s arrays, kept alive by
  /// `owner` (e.g. the mapping a blob was viewed from).  No copy is made;
  /// the caller guarantees the arrays meet the row rules above and never
  /// change while `owner` lives.  The returned matrix and its copies keep
  /// `owner` alive.
  [[nodiscard]] static FeatureMatrix borrow(CsrView view,
                                            std::shared_ptr<const void> owner);
  /// A matrix stored as the bitset block `bits` alone, with `sq_norms` (one
  /// per row) cached alongside — both borrowed like borrow(CsrView) does.
  /// The caller guarantees the block is well formed: no bit at or past
  /// `bits.cols` or at a numeric column, finite numeric values
  /// (svm::view_model_blob checks all of it).
  [[nodiscard]] static FeatureMatrix borrow(const BitsetView& bits,
                                            std::span<const double> sq_norms,
                                            std::shared_ptr<const void> owner);

  [[nodiscard]] std::size_t rows() const noexcept { return sq_norms_.size(); }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return csr().nnz(); }
  [[nodiscard]] bool empty() const noexcept { return rows() == 0; }

  [[nodiscard]] std::span<const std::uint32_t> row_indices(std::size_t i) const {
    return csr().row_indices(i);
  }
  [[nodiscard]] std::span<const double> row_values(std::size_t i) const {
    return csr().row_values(i);
  }
  [[nodiscard]] std::size_t row_nnz(std::size_t i) const {
    const CsrView rows_view = csr();
    return rows_view.row_offsets[i + 1] - rows_view.row_offsets[i];
  }

  /// Cached ||row_i||^2.
  [[nodiscard]] double sq_norm(std::size_t i) const noexcept { return sq_norms_[i]; }
  [[nodiscard]] std::span<const double> sq_norms() const noexcept {
    return sq_norms_;
  }

  /// Materializes row i as a SparseVector (persistence, tests).
  [[nodiscard]] SparseVector row_vector(std::size_t i) const;

  /// Writes row i densely into `out` (zero-filled first).  `out` must hold
  /// at least cols() elements; throws std::invalid_argument otherwise.
  /// Writing into a caller-reused buffer replaces the per-row allocation of
  /// SparseVector::to_dense in hot loops.
  void copy_row_dense(std::size_t i, std::span<double> out) const;

  /// Dot product of every row with a sparse query (sorted indices, no
  /// duplicates), written to out[0..rows).  The query is scattered into a
  /// dense scratch once, then each row streams its own entries —
  /// bit-identical to SparseVector::dot per row (adding the zero products
  /// of unmatched indices cannot change an IEEE sum).  Query indices beyond
  /// cols() cannot match any row and are skipped.
  void dot_all(std::span<const std::uint32_t> query_indices,
               std::span<const double> query_values, std::span<double> out) const {
    csr().dot_all(query_indices, query_values, out);
  }
  /// Row `i` of this matrix as the query.
  void dot_all(std::size_t i, std::span<double> out) const {
    dot_all(row_indices(i), row_values(i), out);
  }

  /// Non-owning CSR view of this matrix's rows (valid while the matrix, or
  /// any copy of it, is).  A bitset-stored matrix decodes them here on the
  /// first call.
  [[nodiscard]] CsrView view() const { return csr(); }

  /// True for a matrix stored as a bitset block only
  /// (borrow(BitsetView, ...)), whose CSR rows are decoded on demand.
  [[nodiscard]] bool bitset_stored() const noexcept {
    return std::holds_alternative<StoredBitset>(rows_);
  }

  /// The rows as a bitset block (DESIGN §11): the stored block of a
  /// bitset-stored matrix; otherwise a companion built from the CSR rows on
  /// first use, with an auto-detected layout, and cached for the matrix's
  /// lifetime.  nullopt when the rows are not representable (see
  /// BitsetStorage::build) — consumers then stay on the CSR path.
  /// Thread-safe; the view stays valid while the matrix is alive.
  [[nodiscard]] std::optional<BitsetView> bitset() const;

  /// Builds (or rebuilds) the bitset with an explicit numeric-column layout
  /// — e.g. schema-derived, so matrices across users share one layout and
  /// encoded queries can be reused.  Call before sharing the matrix across
  /// scoring threads; a later bitset() returns this layout.  On a
  /// bitset-stored matrix only its own layout is accepted; any other throws
  /// std::logic_error.
  void ensure_bitset(std::span<const std::uint32_t> numeric_cols);

  /// Copies share the storage and the derived state; moves leave the source
  /// an empty matrix.
  FeatureMatrix(const FeatureMatrix& other);
  FeatureMatrix(FeatureMatrix&& other) noexcept;
  FeatureMatrix& operator=(const FeatureMatrix& other);
  FeatureMatrix& operator=(FeatureMatrix&& other) noexcept;
  ~FeatureMatrix() = default;

  /// Equality is over the CSR contents only, whoever owns them and however
  /// they are stored.
  friend bool operator==(const FeatureMatrix& a, const FeatureMatrix& b);

 private:
  friend class FeatureMatrixBuilder;

  /// The heap block behind an owned matrix.
  struct Storage {
    std::vector<std::uint32_t> indices;
    std::vector<double> values;
    std::vector<std::size_t> row_offsets{0};
    std::vector<double> sq_norms;
  };

  static constexpr std::size_t kZeroOffset[1] = {0};

  /// The CSR row arrays of a CSR-stored matrix (owned or borrowed);
  /// `row_offsets` holds rows() + 1 entries.
  struct CsrRows {
    const std::uint32_t* indices;
    const double* values;
    const std::size_t* row_offsets;
    std::size_t nnz;
  };
  static constexpr CsrRows kNoRows{nullptr, nullptr, kZeroOffset, 0};

  /// The block of a bitset-stored matrix, less the geometry the matrix
  /// holds anyway (cols, and the row count as sq_norms' length): a
  /// materialized store keeps one matrix per profile, so it stays small.
  struct StoredBitset {
    const std::uint64_t* words;
    const std::uint32_t* numeric_cols;
    const double* numeric_values;
    std::size_t numeric_count;
  };

  /// State derived on first use and then shared, immutable, by copies: the
  /// bitset built from the CSR rows of a CSR-stored matrix, or the CSR rows
  /// decoded from the block of a bitset-stored one.
  struct Derived {
    std::optional<BitsetStorage> bitset;
    DecodedRows decoded;
    CsrView decoded_view;
  };

  /// The CSR rows; a bitset-stored matrix decodes them on first use.
  [[nodiscard]] CsrView csr() const {
    if (const CsrRows* r = std::get_if<CsrRows>(&rows_)) {
      return CsrView{cols_,
                     {r->indices, r->nnz},
                     {r->values, r->nnz},
                     {r->row_offsets, rows() + 1},
                     sq_norms_};
    }
    return decoded_csr();
  }
  [[nodiscard]] const CsrView& decoded_csr() const;
  [[nodiscard]] BitsetView stored_bitset() const noexcept;
  /// derived_, set to `make()` first if empty.
  template <class Make>
  [[nodiscard]] std::shared_ptr<const Derived> derive(Make&& make) const;

  std::size_t cols_ = 0;
  std::span<const double> sq_norms_;  ///< one per row
  std::variant<CsrRows, StoredBitset> rows_{kNoRows};
  std::shared_ptr<const void> storage_;  ///< keeps the borrowed arrays alive
  /// Set-once slot guarded by derived_mutex_ (copies share the immutable
  /// state; the mutex itself is never copied).
  mutable std::mutex derived_mutex_;
  mutable std::shared_ptr<const Derived> derived_;
};

/// Incremental CSR builder for producers that stream (index, value) entries
/// row by row (e.g. straight off WindowAggregator output) without a
/// SparseVector detour.  Each row is normalized exactly like SparseVector:
/// entries sorted by index, duplicates summed, zero results dropped.
class FeatureMatrixBuilder {
 public:
  void add(std::size_t index, double value);
  /// Seals the current row (empty rows are legal and kept), normalized in
  /// place by SparseVector::normalize; the pending buffer keeps its
  /// capacity for the next row.
  void finish_row();
  /// Appends an already-normalized row.
  void add_row(const SparseVector& row);
  /// Appends row `row` of `src` directly from its CSR storage, reusing the
  /// cached squared norm.  Avoids the SparseVector round-trip (two heap
  /// allocations per row) when extracting a row subset — e.g. the support
  /// vectors of every grid-search cell.
  void add_row(const FeatureMatrix& src, std::size_t row);

  /// Emits the matrix and resets the builder.  Pending un-finished entries
  /// are sealed as a final row first.  `cols` as in FeatureMatrix::from_rows.
  [[nodiscard]] FeatureMatrix build(std::size_t cols = 0);

 private:
  /// Appends normalized entries as one row.
  void append(std::span<const SparseVector::Entry> row);

  FeatureMatrix::Storage storage_;
  std::vector<SparseVector::Entry> pending_;
};

}  // namespace wtp::util
