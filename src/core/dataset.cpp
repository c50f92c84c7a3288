#include "core/dataset.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "features/encoder.h"
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

/// subsample's choice: the indices of the rows kept out of `count`.
std::vector<std::size_t> subsample_indices(std::size_t count, std::size_t max_count) {
  std::vector<std::size_t> kept;
  if (max_count == 0 || count <= max_count) {
    kept.resize(count);
    std::iota(kept.begin(), kept.end(), std::size_t{0});
    return kept;
  }
  kept.reserve(max_count);
  const double stride =
      static_cast<double>(count) / static_cast<double>(max_count);
  for (std::size_t i = 0; i < max_count; ++i) {
    kept.push_back(static_cast<std::size_t>(static_cast<double>(i) * stride));
  }
  return kept;
}

/// The dataset's one batch window path.  Walks the windows of `txns`
/// (features::WindowAggregator::aggregate's, on the same
/// features::WindowGrid) and calls merge(encoded) with the encoded
/// transactions of each window that subsample keeps out of all of them
/// (`max_windows`, 0 = all), in order.  Only the kept windows are encoded,
/// each transaction they hold once, into one rolling buffer.
template <class Merge>
void for_each_kept_window(std::span<const log::WebTransaction> txns,
                          const features::FeatureSchema& schema,
                          const features::WindowConfig& window,
                          std::size_t max_windows, Merge&& merge) {
  features::check_window_config(window);
  // The fold's input rule (StreamingWindowAggregator::push), checked up
  // front: the walks below assume it.
  const auto disorder = std::ranges::adjacent_find(
      txns, std::ranges::greater{}, &log::WebTransaction::timestamp);
  if (disorder != txns.end()) {
    throw std::invalid_argument{
        "ProfilingDataset: transactions must be time-ordered (" +
        std::to_string(std::next(disorder)->timestamp) + " after " +
        std::to_string(disorder->timestamp) + ")"};
  }
  if (txns.empty()) return;
  const features::WindowGrid grid{window, txns.front().timestamp};
  const auto timestamp = [txns](std::size_t i) { return txns[i].timestamp; };
  std::size_t windows = 0;
  grid.walk(txns.size(), timestamp, [&windows](std::size_t, std::size_t) { ++windows; });
  const std::vector<std::size_t> kept = subsample_indices(windows, max_windows);

  // `encoded` holds the encodings of transactions [first, first +
  // encoded.size()), the last window merged; windows only move forward,
  // so its tail is reused.
  const features::TransactionEncoder encoder{schema};
  std::vector<features::EncodedTransaction> encoded;
  std::size_t first = 0;
  std::size_t index = 0;
  auto next_kept = kept.begin();
  grid.walk(txns.size(), timestamp, [&](std::size_t lo, std::size_t hi) {
    if (next_kept == kept.end() || *next_kept != index++) return;
    ++next_kept;
    const std::size_t stale = std::min(lo, first + encoded.size()) - first;
    encoded.erase(encoded.begin(), encoded.begin() + static_cast<std::ptrdiff_t>(stale));
    first = lo;
    for (std::size_t i = first + encoded.size(); i < hi; ++i) {
      encoded.push_back(encoder.encode(txns[i]));
    }
    merge(std::span<const features::EncodedTransaction>{encoded});
  });
}

/// The kept windows as CSR rows, written straight into the builder.
util::FeatureMatrix kept_window_matrix(std::span<const log::WebTransaction> txns,
                                       const features::FeatureSchema& schema,
                                       const features::WindowConfig& window,
                                       std::size_t max_windows) {
  util::FeatureMatrixBuilder builder;
  const auto add = [&builder](std::size_t column, double value) {
    builder.add(column, value);
  };
  for_each_kept_window(txns, schema, window, max_windows,
                       [&](std::span<const features::EncodedTransaction> encoded) {
                         features::merge_window(encoded, schema, add);
                         builder.finish_row();
                       });
  return builder.build(schema.dimension());
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

util::FeatureMatrix ProfilingDataset::subsample(const util::FeatureMatrix& rows,
                                                std::size_t max_count) {
  if (max_count == 0 || rows.rows() <= max_count) return rows;
  util::FeatureMatrixBuilder builder;
  for (const std::size_t i : subsample_indices(rows.rows(), max_count)) {
    builder.add_row(rows, i);
  }
  return builder.build(rows.cols());
}

std::vector<util::SparseVector> ProfilingDataset::subsample(
    std::vector<util::SparseVector> vectors, std::size_t max_count) {
  if (max_count == 0 || vectors.size() <= max_count) return vectors;
  std::vector<util::SparseVector> sampled;
  sampled.reserve(max_count);
  for (const std::size_t i : subsample_indices(vectors.size(), max_count)) {
    sampled.push_back(std::move(vectors[i]));
  }
  return sampled;
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
  auto built = train ? kept_window_matrix(train_transactions(user), schema_, window,
                                          config_.max_training_windows)
                     : kept_window_matrix(test_transactions(user), schema_, window, 0);
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

}  // namespace wtp::core
