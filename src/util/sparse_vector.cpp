#include "util/sparse_vector.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wtp::util {

void SparseVector::normalize(std::vector<Entry>& entries) {
  // Strictly ascending input skips the sort and the merge: distinct
  // indices have one sorted order, and nothing is left to sum.
  const bool ascending =
      std::adjacent_find(entries.begin(), entries.end(),
                         [](const auto& a, const auto& b) {
                           return a.index >= b.index;
                         }) == entries.end();
  if (!ascending) {
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.index < b.index; });
    std::size_t kept = 0;
    for (const Entry& entry : entries) {
      if (kept > 0 && entries[kept - 1].index == entry.index) {
        entries[kept - 1].value += entry.value;
      } else {
        entries[kept++] = entry;
      }
    }
    entries.resize(kept);
  }
  std::erase_if(entries, [](const auto& e) { return e.value == 0.0; });
}

SparseVector::SparseVector(std::vector<Entry> entries)
    : entries_{std::move(entries)} {
  normalize(entries_);
  entries_.shrink_to_fit();
}

SparseVector::SparseVector(std::initializer_list<Entry> entries)
    : SparseVector{std::vector<Entry>{entries}} {}

SparseVector SparseVector::from_dense(std::span<const double> dense) {
  std::vector<Entry> entries;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    if (dense[i] != 0.0) entries.push_back({i, dense[i]});
  }
  SparseVector vec;
  vec.entries_ = std::move(entries);  // already sorted & unique
  return vec;
}

double SparseVector::at(std::size_t index) const noexcept {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), index,
      [](const Entry& e, std::size_t target) { return e.index < target; });
  if (it != entries_.end() && it->index == index) return it->value;
  return 0.0;
}

std::vector<double> SparseVector::to_dense(std::size_t dimension) const {
  std::vector<double> dense(dimension, 0.0);
  for (const auto& entry : entries_) {
    if (entry.index >= dimension) {
      throw std::out_of_range{"SparseVector::to_dense: index " +
                              std::to_string(entry.index) + " >= dimension " +
                              std::to_string(dimension)};
    }
    dense[entry.index] = entry.value;
  }
  return dense;
}

double SparseVector::dot(const SparseVector& other) const noexcept {
  double sum = 0.0;
  auto a = entries_.begin();
  auto b = other.entries_.begin();
  while (a != entries_.end() && b != other.entries_.end()) {
    if (a->index < b->index) {
      ++a;
    } else if (b->index < a->index) {
      ++b;
    } else {
      sum += a->value * b->value;
      ++a;
      ++b;
    }
  }
  return sum;
}

double SparseVector::squared_norm() const noexcept {
  double sum = 0.0;
  for (const auto& entry : entries_) sum += entry.value * entry.value;
  return sum;
}

double SparseVector::squared_distance(const SparseVector& other) const noexcept {
  double sum = 0.0;
  auto a = entries_.begin();
  auto b = other.entries_.begin();
  while (a != entries_.end() || b != other.entries_.end()) {
    if (b == other.entries_.end() || (a != entries_.end() && a->index < b->index)) {
      sum += a->value * a->value;
      ++a;
    } else if (a == entries_.end() || b->index < a->index) {
      sum += b->value * b->value;
      ++b;
    } else {
      const double diff = a->value - b->value;
      sum += diff * diff;
      ++a;
      ++b;
    }
  }
  return sum;
}

}  // namespace wtp::util
