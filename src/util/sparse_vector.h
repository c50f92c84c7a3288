// Sparse feature vector: sorted (index, value) pairs over a fixed-dimension
// feature space.  Window feature vectors have ~10-40 non-zeros out of 843
// columns (Tab. I), so both the encoder and the SVM kernels operate on this
// representation.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

namespace wtp::util {

/// Immutable-after-build sparse vector.  Entries are kept sorted by index
/// with no duplicates and no explicit zeros.
class SparseVector {
 public:
  struct Entry {
    std::size_t index;
    double value;

    friend auto operator<=>(const Entry&, const Entry&) = default;
  };

  SparseVector() = default;

  /// Builds from possibly-unsorted entries; duplicate indices are summed and
  /// zero-valued results dropped.
  explicit SparseVector(std::vector<Entry> entries);
  SparseVector(std::initializer_list<Entry> entries);

  /// The constructor's rule, in place: sorts `entries` by index, sums each
  /// run of duplicates in sorted order, then drops zero results.  Keeps
  /// the vector's capacity.
  static void normalize(std::vector<Entry>& entries);

  /// Builds from a dense vector, dropping zeros.
  [[nodiscard]] static SparseVector from_dense(std::span<const double> dense);

  [[nodiscard]] std::span<const Entry> entries() const noexcept { return entries_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// Value at `index` (0.0 when absent); O(log nnz).
  [[nodiscard]] double at(std::size_t index) const noexcept;

  /// Dense expansion of length `dimension` (indices beyond it are an error).
  [[nodiscard]] std::vector<double> to_dense(std::size_t dimension) const;

  /// Dot product with another sparse vector (merge join, O(nnz_a + nnz_b)).
  [[nodiscard]] double dot(const SparseVector& other) const noexcept;

  /// Squared Euclidean norm.
  [[nodiscard]] double squared_norm() const noexcept;

  /// Squared Euclidean distance to another sparse vector.
  [[nodiscard]] double squared_distance(const SparseVector& other) const noexcept;

  friend bool operator==(const SparseVector&, const SparseVector&) = default;

 private:
  std::vector<Entry> entries_;
};

}  // namespace wtp::util
