#include "core/dataset.h"

#include <algorithm>
#include <stdexcept>

namespace wtp::core {

ProfilingDataset::ProfilingDataset(std::vector<log::WebTransaction> transactions,
                                   DatasetConfig config)
    : config_{config} {
  if (config.train_fraction <= 0.0 || config.train_fraction >= 1.0) {
    throw std::invalid_argument{"ProfilingDataset: train_fraction must be in (0,1)"};
  }
  // The schema is built over the full dataset, as in the paper (§IV-A).
  schema_ = features::FeatureSchema::from_transactions(transactions);

  std::map<std::string, std::size_t> counts;
  for (const auto& txn : transactions) ++counts[txn.user_id];

  // Filter users below the transaction threshold, then keep the most active
  // `max_users`.
  std::vector<std::pair<std::string, std::size_t>> eligible;
  for (const auto& [user, count] : counts) {
    if (count >= config.min_transactions) eligible.emplace_back(user, count);
  }
  std::sort(eligible.begin(), eligible.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (config.max_users > 0 && eligible.size() > config.max_users) {
    eligible.resize(config.max_users);
  }

  for (auto& [user, count] : eligible) {
    UserData data;
    data.transactions.reserve(count);
    data.train_count = static_cast<std::size_t>(
        config.train_fraction * static_cast<double>(count));
    users_.emplace(user, std::move(data));
  }
  // Kept users' rows move out of the log in log order; the log, with the
  // dropped users' rows, is freed before the constructor returns.
  for (auto& txn : transactions) {
    const auto it = users_.find(txn.user_id);
    if (it != users_.end()) it->second.transactions.push_back(std::move(txn));
  }
  std::vector<log::WebTransaction>{}.swap(transactions);

  for (const auto& [user, data] : users_) {
    (void)data;
    user_ids_.push_back(user);
  }
}

const ProfilingDataset::UserData& ProfilingDataset::user_data(
    const std::string& user) const {
  const auto it = users_.find(user);
  if (it == users_.end()) {
    throw std::out_of_range{"ProfilingDataset: unknown user '" + user + "'"};
  }
  return it->second;
}

std::span<const log::WebTransaction> ProfilingDataset::train_transactions(
    const std::string& user) const {
  const UserData& data = user_data(user);
  return std::span{data.transactions}.first(data.train_count);
}

std::span<const log::WebTransaction> ProfilingDataset::test_transactions(
    const std::string& user) const {
  const UserData& data = user_data(user);
  return std::span{data.transactions}.subspan(data.train_count);
}

std::span<const log::WebTransaction> ProfilingDataset::all_transactions(
    const std::string& user) const {
  return user_data(user).transactions;
}

std::vector<util::SparseVector> ProfilingDataset::subsample(
    std::vector<util::SparseVector> vectors, std::size_t max_count) {
  if (max_count == 0 || vectors.size() <= max_count) return vectors;
  std::vector<util::SparseVector> sampled;
  sampled.reserve(max_count);
  const double stride =
      static_cast<double>(vectors.size()) / static_cast<double>(max_count);
  for (std::size_t i = 0; i < max_count; ++i) {
    sampled.push_back(std::move(vectors[static_cast<std::size_t>(
        static_cast<double>(i) * stride)]));
  }
  return sampled;
}

std::vector<util::SparseVector> ProfilingDataset::train_windows(
    const std::string& user, const features::WindowConfig& window) const {
  const features::WindowAggregator aggregator{schema_, window};
  auto vectors = features::window_vectors(aggregator.aggregate(train_transactions(user)));
  return subsample(std::move(vectors), config_.max_training_windows);
}

std::vector<util::SparseVector> ProfilingDataset::test_windows(
    const std::string& user, const features::WindowConfig& window) const {
  const features::WindowAggregator aggregator{schema_, window};
  return features::window_vectors(aggregator.aggregate(test_transactions(user)));
}

std::shared_ptr<const util::FeatureMatrix> ProfilingDataset::cached_matrix(
    const std::string& user, const features::WindowConfig& window,
    bool train) const {
  const MatrixKey key{window.duration_s, window.shift_s, train, user};
  {
    const std::lock_guard lock{matrix_cache_->mutex};
    const auto it = matrix_cache_->entries.find(key);
    if (it != matrix_cache_->entries.end()) return it->second;
  }
  // Window outside the lock: concurrent misses on the same key may both
  // compute, but they produce identical matrices and the first insert wins.
  const auto vectors =
      train ? train_windows(user, window) : test_windows(user, window);
  auto built = util::FeatureMatrix::from_rows(vectors, schema_.dimension());
  // Schema-derived bitset layout: every per-user matrix shares it, so the
  // batched kernel paths borrow query encodings zero-copy (DESIGN §11).
  built.ensure_bitset(schema_.numeric_columns());
  auto matrix = std::make_shared<const util::FeatureMatrix>(std::move(built));
  const std::lock_guard lock{matrix_cache_->mutex};
  return matrix_cache_->entries.emplace(key, std::move(matrix)).first->second;
}

std::shared_ptr<const util::FeatureMatrix> ProfilingDataset::train_matrix(
    const std::string& user, const features::WindowConfig& window) const {
  return cached_matrix(user, window, /*train=*/true);
}

std::shared_ptr<const util::FeatureMatrix> ProfilingDataset::test_matrix(
    const std::string& user, const features::WindowConfig& window) const {
  return cached_matrix(user, window, /*train=*/false);
}

std::map<std::string, std::size_t> ProfilingDataset::transaction_counts() const {
  std::map<std::string, std::size_t> counts;
  for (const auto& [user, data] : users_) counts[user] = data.transactions.size();
  return counts;
}

}  // namespace wtp::core
