#include "core/dataset.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "util/pages.h"

namespace wtp::core {

namespace {

/// Reorders rows so that row i ends up at position i of the gather map
/// (rows[i] <- rows[from[i]]), walking the permutation's cycles: every row
/// moves once, and one row per cycle goes through a temporary.  `from` is
/// consumed (each visited position is set to itself).
void gather_in_place(std::vector<log::WebTransaction>& rows,
                     std::vector<std::size_t>& from) {
  // Fetching every cache line of the next source row while the current one
  // moves hides most of the random access's latency.
  const auto prefetch = [&rows](std::size_t i) {
    constexpr std::size_t kRowBytes = sizeof(log::WebTransaction);
    const char* row = reinterpret_cast<const char*>(&rows[i]);
    for (std::size_t at = 0; at < kRowBytes; at += 64) __builtin_prefetch(row + at);
    __builtin_prefetch(row + kRowBytes - 1);
  };
  for (std::size_t start = 0; start < rows.size(); ++start) {
    if (from[start] == start) continue;
    log::WebTransaction carried = std::move(rows[start]);
    std::size_t at = start;
    for (;;) {
      const std::size_t source = std::exchange(from[at], at);
      if (source == start) {
        rows[at] = std::move(carried);
        break;
      }
      prefetch(from[source]);
      rows[at] = std::move(rows[source]);
      at = source;
    }
  }
}

}  // namespace

ProfilingDataset::ProfilingDataset(std::vector<log::WebTransaction> transactions,
                                   DatasetConfig config)
    : config_{config} {
  if (config.train_fraction <= 0.0 || config.train_fraction >= 1.0) {
    throw std::invalid_argument{"ProfilingDataset: train_fraction must be in (0,1)"};
  }
  // The schema is built over the full dataset, as in the paper (§IV-A).
  schema_ = features::FeatureSchema::from_transactions(transactions);

  // One pass gives every row a dense user id.  The keys view the rows'
  // user_id buffers, which live as long as a row holds them.
  std::unordered_map<std::string_view, std::uint32_t> ids;
  std::vector<std::string_view> names;
  std::vector<std::size_t> counts;
  std::vector<std::uint32_t> row_user(transactions.size());
  for (std::size_t i = 0; i < transactions.size(); ++i) {
    const auto [it, inserted] = ids.try_emplace(
        transactions[i].user_id, static_cast<std::uint32_t>(names.size()));
    if (inserted) {
      names.push_back(it->first);
      counts.push_back(0);
    }
    ++counts[it->second];
    row_user[i] = it->second;
  }

  // Filter users below the transaction threshold, then keep the most active
  // `max_users`.
  std::vector<std::uint32_t> kept;
  for (std::uint32_t id = 0; id < names.size(); ++id) {
    if (counts[id] >= config.min_transactions) kept.push_back(id);
  }
  std::sort(kept.begin(), kept.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (counts[a] != counts[b]) return counts[a] > counts[b];
    return names[a] < names[b];
  });
  if (config.max_users > 0 && kept.size() > config.max_users) {
    kept.resize(config.max_users);
  }
  std::sort(kept.begin(), kept.end(),
            [&](std::uint32_t a, std::uint32_t b) { return names[a] < names[b]; });
  // Each user's block starts where the previous one ends; every dropped row
  // shares the last block, after the kept ones.
  const auto dropped = static_cast<std::uint32_t>(kept.size());
  std::vector<std::uint32_t> block(counts.size(), dropped);
  std::vector<std::size_t> cursor(kept.size() + 1);
  std::size_t kept_rows = 0;
  for (std::uint32_t k = 0; k < kept.size(); ++k) {
    block[kept[k]] = k;
    cursor[k] = kept_rows;
    kept_rows += counts[kept[k]];
  }
  cursor[dropped] = kept_rows;
  std::vector<std::size_t> from(transactions.size());
  for (std::size_t i = 0; i < transactions.size(); ++i) {
    from[cursor[block[row_user[i]]]++] = i;
  }
  gather_in_place(transactions, from);
  transactions.erase(transactions.begin() + static_cast<std::ptrdiff_t>(kept_rows),
                     transactions.end());
  util::release_spare_capacity(transactions);
  rows_ = std::move(transactions);

  std::span<const log::WebTransaction> rest{rows_};
  for (const std::uint32_t id : kept) {
    user_ids_.emplace_back(names[id]);
    const std::size_t count = counts[id];
    users_.push_back({rest.first(count),
                      static_cast<std::size_t>(config.train_fraction *
                                               static_cast<double>(count))});
    rest = rest.subspan(count);
  }
}

const ProfilingDataset::UserData& ProfilingDataset::user_data(
    const std::string& user) const {
  const auto it = std::lower_bound(user_ids_.begin(), user_ids_.end(), user);
  if (it == user_ids_.end() || *it != user) {
    throw std::out_of_range{"ProfilingDataset: unknown user '" + user + "'"};
  }
  return users_[static_cast<std::size_t>(it - user_ids_.begin())];
}

std::span<const log::WebTransaction> ProfilingDataset::train_transactions(
    const std::string& user) const {
  const UserData& data = user_data(user);
  return data.rows.first(data.train_count);
}

std::span<const log::WebTransaction> ProfilingDataset::test_transactions(
    const std::string& user) const {
  const UserData& data = user_data(user);
  return data.rows.subspan(data.train_count);
}

std::span<const log::WebTransaction> ProfilingDataset::all_transactions(
    const std::string& user) const {
  return user_data(user).rows;
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
  for (std::size_t u = 0; u < user_ids_.size(); ++u) {
    counts.emplace(user_ids_[u], users_[u].rows.size());
  }
  return counts;
}

}  // namespace wtp::core
