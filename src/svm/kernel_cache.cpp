#include "svm/kernel_cache.h"

#include "svm/kernel.h"

#include <algorithm>
#include <stdexcept>

namespace wtp::svm {

KernelCache::KernelCache(std::size_t rows, std::size_t budget_bytes)
    : rows_{rows}, slots_(rows) {
  if (rows == 0) throw std::invalid_argument{"KernelCache: rows must be > 0"};
  const std::size_t row_bytes = rows * sizeof(float);
  max_cached_rows_ = std::max<std::size_t>(2, budget_bytes / std::max<std::size_t>(1, row_bytes));
  max_cached_rows_ = std::min(max_cached_rows_, rows);
}

std::span<const float> KernelCache::get(
    std::size_t i,
    const std::function<void(std::size_t, std::span<float>)>& fill) {
  if (i >= rows_) throw std::out_of_range{"KernelCache::get: row out of range"};
  Slot& slot = slots_[i];
  if (slot.cached) {
    ++hits_;
    // splice moves the node in place: no allocation on the hit path.
    lru_.splice(lru_.begin(), lru_, slot.lru_pos);
    slot.lru_pos = lru_.begin();
    return slot.data;
  }
  ++misses_;
  if (cached_count_ >= max_cached_rows_) evict_one();
  slot.data.resize(rows_);
  fill(i, slot.data);
  slot.cached = true;
  ++cached_count_;
  lru_.push_front(i);
  slot.lru_pos = lru_.begin();
  return slot.data;
}

void KernelCache::evict_one() {
  if (lru_.empty()) return;
  const std::size_t victim = lru_.back();
  lru_.pop_back();
  Slot& slot = slots_[victim];
  slot.cached = false;
  slot.data.clear();
  slot.data.shrink_to_fit();
  --cached_count_;
}

GramCache::GramCache(const util::FeatureMatrix& data, std::size_t budget_bytes)
    : data_{&data}, slots_(data.rows()) {
  if (data.empty()) throw std::invalid_argument{"GramCache: empty matrix"};
  const std::size_t row_bytes = data.rows() * sizeof(double);
  max_cached_rows_ = std::max<std::size_t>(
      2, budget_bytes / std::max<std::size_t>(1, row_bytes));
  max_cached_rows_ = std::min(max_cached_rows_, data.rows());
}

void GramCache::row(std::size_t i, std::span<double> out) {
  if (i >= slots_.size()) {
    throw std::out_of_range{"GramCache::row: row out of range"};
  }
  const std::lock_guard<std::mutex> lock{mutex_};
  Slot& slot = slots_[i];
  if (slot.cached) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, slot.lru_pos);
    slot.lru_pos = lru_.begin();
    std::copy(slot.data.begin(), slot.data.end(), out.begin());
    return;
  }
  ++misses_;
  if (cached_count_ >= max_cached_rows_) evict_one();
  slot.data.resize(data_->rows());
  const KernelMatrix matrix = kernel_matrix(*data_);
  dot_block(matrix, KernelQueries::rows(matrix, i, 1), slot.data);
  slot.cached = true;
  ++cached_count_;
  lru_.push_front(i);
  slot.lru_pos = lru_.begin();
  std::copy(slot.data.begin(), slot.data.end(), out.begin());
}

std::size_t GramCache::hits() const noexcept {
  const std::lock_guard<std::mutex> lock{mutex_};
  return hits_;
}

std::size_t GramCache::misses() const noexcept {
  const std::lock_guard<std::mutex> lock{mutex_};
  return misses_;
}

void GramCache::evict_one() {
  if (lru_.empty()) return;
  const std::size_t victim = lru_.back();
  lru_.pop_back();
  Slot& slot = slots_[victim];
  slot.cached = false;
  slot.data.clear();
  slot.data.shrink_to_fit();
  --cached_count_;
}

}  // namespace wtp::svm
