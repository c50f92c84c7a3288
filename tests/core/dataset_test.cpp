#include "core/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <span>
#include <string_view>

#include "core/test_trace.h"
#include "features/split.h"
#include "features/window_reference.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace wtp::core {
namespace {

log::WebTransaction make_txn(util::UnixSeconds ts, const std::string& user) {
  log::WebTransaction txn;
  txn.timestamp = ts;
  txn.user_id = user;
  txn.device_id = "d1";
  txn.category = "Games";
  txn.media_type = "text/html";
  txn.application_type = "Steam";
  return txn;
}

/// Whether every row of `rows` lies in the buffer of `capacity` rows at
/// `buffer`.
bool lies_within(std::span<const log::WebTransaction> rows,
                 const log::WebTransaction* buffer, std::size_t capacity) {
  const auto begin = reinterpret_cast<std::uintptr_t>(buffer);
  const auto end = reinterpret_cast<std::uintptr_t>(buffer + capacity);
  return rows.empty() || (reinterpret_cast<std::uintptr_t>(rows.data()) >= begin &&
                          reinterpret_cast<std::uintptr_t>(rows.data() + rows.size()) <= end);
}

TEST(ProfilingDataset, FiltersUsersBelowThreshold) {
  std::vector<log::WebTransaction> txns;
  for (int i = 0; i < 50; ++i) txns.push_back(make_txn(i, "busy"));
  for (int i = 0; i < 3; ++i) txns.push_back(make_txn(i, "idle"));
  DatasetConfig config;
  config.min_transactions = 10;
  const ProfilingDataset dataset{txns, config};
  EXPECT_EQ(dataset.user_ids(), (std::vector<std::string>{"busy"}));
}

TEST(ProfilingDataset, KeepsMostActiveUsersUpToMaxUsers) {
  std::vector<log::WebTransaction> txns;
  for (int u = 0; u < 5; ++u) {
    const std::string user = "user_" + std::to_string(u);
    for (int i = 0; i < 10 + u * 10; ++i) txns.push_back(make_txn(i, user));
  }
  DatasetConfig config;
  config.min_transactions = 1;
  config.max_users = 2;
  const ProfilingDataset dataset{txns, config};
  // user_4 (50 txns) and user_3 (40 txns) survive.
  EXPECT_EQ(dataset.user_count(), 2u);
  EXPECT_EQ(dataset.user_ids(), (std::vector<std::string>{"user_3", "user_4"}));
}

TEST(ProfilingDataset, EqualCountsAtTheMaxUsersCutKeepTheSmallerId) {
  // "top" is kept on count; "beta" and "alpha" tie for the last place, and
  // the lexicographically smaller id wins whatever the log order.
  std::vector<log::WebTransaction> txns;
  for (int i = 0; i < 20; ++i) {
    txns.push_back(make_txn(i, "beta"));
    txns.push_back(make_txn(i, "top"));
    txns.push_back(make_txn(i, "alpha"));
    txns.push_back(make_txn(i, "top"));
  }
  DatasetConfig config;
  config.min_transactions = 1;
  config.max_users = 2;
  const ProfilingDataset dataset{txns, config};
  EXPECT_EQ(dataset.user_ids(), (std::vector<std::string>{"alpha", "top"}));
  EXPECT_EQ(dataset.all_transactions("alpha").size(), 20u);
  EXPECT_EQ(dataset.all_transactions("top").size(), 40u);
}

TEST(ProfilingDataset, ChronologicalSplitUsesOldestForTraining) {
  std::vector<log::WebTransaction> txns;
  for (int i = 0; i < 100; ++i) txns.push_back(make_txn(i, "u"));
  DatasetConfig config;
  config.min_transactions = 1;
  config.train_fraction = 0.75;
  const ProfilingDataset dataset{txns, config};
  const auto train = dataset.train_transactions("u");
  const auto test = dataset.test_transactions("u");
  ASSERT_EQ(train.size(), 75u);
  ASSERT_EQ(test.size(), 25u);
  EXPECT_LT(train.back().timestamp, test.front().timestamp);
  EXPECT_EQ(dataset.all_transactions("u").size(), 100u);
}

TEST(ProfilingDataset, UnknownUserThrows) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  EXPECT_THROW((void)dataset.train_transactions("nobody"), std::out_of_range);
}

TEST(ProfilingDataset, InvalidTrainFractionThrows) {
  DatasetConfig config;
  config.train_fraction = 1.0;
  EXPECT_THROW((ProfilingDataset{{}, config}), std::invalid_argument);
}

TEST(ProfilingDataset, SchemaCoversAllObservedValues) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  EXPECT_GT(dataset.schema().dimension(), 9u);
  // Every transaction's category resolves to a column (schema built over
  // the full dataset).
  for (const auto& user : dataset.user_ids()) {
    for (const auto& txn : dataset.all_transactions(user).first(50)) {
      EXPECT_TRUE(dataset.schema().category_column(txn.category).has_value());
    }
  }
}

TEST(ProfilingDataset, WindowsAreNonEmptyAndCapAtConfiguredMax) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const features::WindowConfig window{60, 30};
  for (const auto& user : dataset.user_ids()) {
    const auto train = dataset.train_matrix(user, window);
    EXPECT_FALSE(train->empty());
    EXPECT_LE(train->rows(), testing::tiny_dataset_config().max_training_windows);
    EXPECT_FALSE(dataset.test_matrix(user, window)->empty());
  }
}

TEST(ProfilingDataset, SubsampleKeepsOrderAndBounds) {
  std::vector<util::SparseVector> vectors;
  for (std::size_t i = 0; i < 100; ++i) {
    vectors.push_back(util::SparseVector{{i, 1.0}});
  }
  const auto sampled = ProfilingDataset::subsample(vectors, 10);
  ASSERT_EQ(sampled.size(), 10u);
  std::size_t previous = 0;
  for (const auto& v : sampled) {
    const std::size_t index = v.entries()[0].index;
    EXPECT_GE(index, previous);
    previous = index;
  }
  EXPECT_EQ(sampled.front().entries()[0].index, 0u);
}

TEST(ProfilingDataset, SubsampleTakesTheFloorOfEachStrideStep) {
  // 95 rows to 10: stride 9.5, so row floor(9.5 i) is kept (rounding would
  // keep rows 10, 29, 48, ... instead).
  std::vector<util::SparseVector> vectors;
  for (std::size_t i = 0; i < 95; ++i) vectors.push_back(util::SparseVector{{i, 1.0}});
  std::vector<std::size_t> kept;
  for (const auto& v : ProfilingDataset::subsample(vectors, 10)) {
    kept.push_back(v.entries()[0].index);
  }
  EXPECT_EQ(kept, (std::vector<std::size_t>{0, 9, 19, 28, 38, 47, 57, 66, 76, 85}));
  // The matrix overload keeps the same rows.
  const auto sampled =
      ProfilingDataset::subsample(util::FeatureMatrix::from_rows(vectors), 10);
  EXPECT_EQ(sampled.cols(), 95u);
  ASSERT_EQ(sampled.rows(), kept.size());
  for (std::size_t r = 0; r < sampled.rows(); ++r) {
    EXPECT_EQ(sampled.row_vector(r), vectors[kept[r]]) << "row " << r;
  }
}

TEST(ProfilingDataset, SubsampleNoopWhenUnderCap) {
  std::vector<util::SparseVector> vectors{util::SparseVector{{0, 1.0}}};
  EXPECT_EQ(ProfilingDataset::subsample(vectors, 10).size(), 1u);
  EXPECT_EQ(ProfilingDataset::subsample(vectors, 0).size(), 1u);  // 0 = no cap
  const auto matrix = util::FeatureMatrix::from_rows(vectors);
  EXPECT_EQ(ProfilingDataset::subsample(matrix, 10), matrix);
  EXPECT_EQ(ProfilingDataset::subsample(matrix, 0), matrix);
}

TEST(ProfilingDataset, KeptUsersHoldTheirGroupedRowsInLogOrder) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const auto by_user = features::group_by_user(testing::tiny_trace().transactions);
  ASSERT_FALSE(dataset.user_ids().empty());
  for (const auto& user : dataset.user_ids()) {
    const auto& expected = by_user.at(user);
    const auto rows = dataset.all_transactions(user);
    ASSERT_EQ(rows.size(), expected.size()) << user;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(rows[i], expected[i]) << user << " row " << i;
    }
    const auto train_count = static_cast<std::size_t>(
        testing::tiny_dataset_config().train_fraction *
        static_cast<double>(expected.size()));
    EXPECT_EQ(dataset.train_transactions(user).size(), train_count) << user;
    EXPECT_EQ(dataset.test_transactions(user).size(), expected.size() - train_count)
        << user;
  }
}

TEST(ProfilingDataset, MovesRowsInsteadOfCopying) {
  // A dataset that copied its rows would hold them in a buffer of its own.
  // One that moves them keeps them in the vector it is handed, whose buffer
  // stays where it is (release_spare_capacity frees only the pages past the
  // rows), so every kept row lies inside that buffer.
  std::vector<log::WebTransaction> txns;
  for (int i = 0; i < 40; ++i) txns.push_back(make_txn(i, i % 4 == 0 ? "rare" : "busy"));
  const log::WebTransaction* buffer = txns.data();
  const std::size_t capacity = txns.capacity();
  DatasetConfig config;
  config.min_transactions = 20;
  const ProfilingDataset dataset{std::move(txns), config};
  ASSERT_EQ(dataset.user_ids(), (std::vector<std::string>{"busy"}));
  const auto rows = dataset.all_transactions("busy");
  ASSERT_EQ(rows.size(), 30u);
  EXPECT_TRUE(lies_within(rows, buffer, capacity));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].user_id, "busy") << "row " << i;
  }
}

TEST(ProfilingDataset, GroupsInPlaceLikeGroupByUser) {
  // A log with spare capacity whose kept and dropped users interleave at
  // random: a URL of its own per row (so a row in the wrong place shows),
  // one user dropped by the threshold and one by max_users.  The kept rows
  // must come out in the vector's own buffer.
  std::mt19937 rng{7};
  const std::vector<std::string> users{"u0", "u1", "u2", "u3", "rare", "cut"};
  const std::vector<int> weights{30, 25, 20, 15, 2, 10};
  std::discrete_distribution<std::size_t> pick{weights.begin(), weights.end()};
  std::vector<log::WebTransaction> txns;
  txns.reserve(3000);
  for (int i = 0; i < 1200; ++i) {
    auto txn = make_txn(i, users[pick(rng)]);
    txn.url = "site_" + std::to_string(i);
    txn.device_id = "device_" + std::to_string(i % 7);
    txns.push_back(std::move(txn));
  }
  ASSERT_GT(txns.capacity(), txns.size());
  const auto by_user = features::group_by_user(txns);
  const log::WebTransaction* buffer = txns.data();
  const std::size_t capacity = txns.capacity();

  DatasetConfig config;
  config.min_transactions = 50;
  config.max_users = 4;
  ProfilingDataset dataset{std::move(txns), config};
  ASSERT_EQ(dataset.user_ids(), (std::vector<std::string>{"u0", "u1", "u2", "u3"}));
  for (const auto& user : dataset.user_ids()) {
    const auto& expected = by_user.at(user);
    const auto rows = dataset.all_transactions(user);
    ASSERT_EQ(rows.size(), expected.size()) << user;
    EXPECT_TRUE(lies_within(rows, buffer, capacity)) << user;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(rows[i], expected[i]) << user << " row " << i;
    }
  }
  // The dataset stays movable: the spans follow the moved buffer.
  const ProfilingDataset moved{std::move(dataset)};
  for (const auto& user : moved.user_ids()) {
    ASSERT_EQ(moved.all_transactions(user).size(), by_user.at(user).size());
    EXPECT_EQ(moved.all_transactions(user).front(), by_user.at(user).front());
    EXPECT_TRUE(lies_within(moved.all_transactions(user), buffer, capacity)) << user;
  }
}

/// Whether two matrices hold the same CSR rows and norms bit for bit.
::testing::AssertionResult same_bits(const util::FeatureMatrix& got,
                                     const util::FeatureMatrix& want) {
  const util::CsrView a = got.view();
  const util::CsrView b = want.view();
  const auto bits = [](std::span<const double> values) {
    std::vector<std::uint64_t> out;
    for (const double value : values) out.push_back(std::bit_cast<std::uint64_t>(value));
    return out;
  };
  if (a.cols != b.cols || !std::ranges::equal(a.row_offsets, b.row_offsets) ||
      !std::ranges::equal(a.indices, b.indices) || bits(a.values) != bits(b.values) ||
      bits(a.sq_norms) != bits(b.sq_norms)) {
    return ::testing::AssertionFailure()
           << got.rows() << " rows x " << got.nnz() << " nnz vs " << want.rows()
           << " rows x " << want.nnz() << " nnz";
  }
  return ::testing::AssertionSuccess();
}

TEST(ProfilingDataset, BatchRowsMatchTheStreamingFoldAtEveryCap) {
  // The tiny trace's users, plus two whose streams jump: bursts a few
  // seconds apart separated by holes of minutes to hours, and bursts that
  // start exactly on window boundaries.
  std::vector<log::WebTransaction> txns = testing::tiny_trace().transactions;
  util::Rng rng{2025};
  for (const char* user : {"gappy", "edges"}) {
    util::UnixSeconds now = txns.front().timestamp;
    for (int i = 0; i < 1500; ++i) {
      if (rng.bernoulli(0.03)) {
        now += std::string_view{user} == "edges"
                   ? 30 * static_cast<util::UnixSeconds>(2 + rng.uniform_index(200))
                   : 60 + static_cast<util::UnixSeconds>(rng.uniform_index(7200));
      } else {
        now += static_cast<util::UnixSeconds>(rng.uniform_index(5));
      }
      auto txn = make_txn(now, user);
      txn.private_destination = rng.bernoulli(0.3);
      txn.reputation = static_cast<log::Reputation>(rng.uniform_index(4));
      txns.push_back(std::move(txn));
    }
  }
  std::ranges::stable_sort(txns, {}, &log::WebTransaction::timestamp);
  const features::WindowConfig window{60, 30};
  for (const std::size_t cap : {0, 1, 150, 800}) {
    DatasetConfig config = testing::tiny_dataset_config();
    config.max_users = 0;
    config.max_training_windows = cap;
    const ProfilingDataset dataset{txns, config};
    ASSERT_GE(dataset.user_count(), 3u);
    const std::size_t dimension = dataset.schema().dimension();
    const features::WindowAggregator aggregator{dataset.schema(), window};
    // Four threads build the matrices at once, each merging through its
    // own scratch.
    util::ThreadPool pool{4};
    util::parallel_for(pool, dataset.user_count() * 2, [&](std::size_t task) {
      const std::string& user = dataset.user_ids()[task / 2];
      (void)(task % 2 == 0 ? dataset.train_matrix(user, window)
                           : dataset.test_matrix(user, window));
    });
    std::size_t subsampled = 0;
    for (const auto& user : dataset.user_ids()) {
      const auto train = dataset.train_transactions(user);
      const auto test = dataset.test_transactions(user);
      const auto streamed = features::window_vectors(aggregator.aggregate(train));
      subsampled += streamed.size() > cap && cap > 0 ? 1 : 0;
      EXPECT_TRUE(same_bits(*dataset.train_matrix(user, window),
                            util::FeatureMatrix::from_rows(
                                ProfilingDataset::subsample(streamed, cap), dimension)))
          << user << " train, cap " << cap;
      EXPECT_TRUE(same_bits(*dataset.train_matrix(user, window),
                            util::FeatureMatrix::from_rows(
                                ProfilingDataset::subsample(
                                    features::window_vectors(
                                        features::testing::reference_aggregate(
                                            dataset.schema(), window, train)),
                                    cap),
                                dimension)))
          << user << " train vs oracle, cap " << cap;
      EXPECT_TRUE(same_bits(*dataset.test_matrix(user, window),
                            util::FeatureMatrix::from_rows(
                                features::window_vectors(aggregator.aggregate(test)),
                                dimension)))
          << user << " test, cap " << cap;
      // Subsampling the matrix keeps the rows subsampling the vectors does.
      const auto uncapped = util::FeatureMatrix::from_rows(streamed, dimension);
      EXPECT_TRUE(same_bits(
          ProfilingDataset::subsample(uncapped, cap),
          util::FeatureMatrix::from_rows(ProfilingDataset::subsample(streamed, cap),
                                         dimension)))
          << user << " subsampled matrix, cap " << cap;
    }
    if (cap > 0) {
      EXPECT_GT(subsampled, 0u) << "cap " << cap;
    }
  }
}

TEST(ProfilingDataset, MatricesRefuseRowsOutOfTimeOrder) {
  // Like WindowAggregator::aggregate, whose fold refuses them.
  std::vector<log::WebTransaction> txns;
  for (const int ts : {0, 50, 40, 100, 130, 160, 190, 220}) txns.push_back(make_txn(ts, "u"));
  DatasetConfig config;
  config.min_transactions = 1;
  const ProfilingDataset dataset{txns, config};
  const features::WindowConfig window{60, 30};
  try {
    (void)dataset.train_matrix("u", window);
    ADD_FAILURE() << "train_matrix took rows out of time order";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("time-ordered (40 after 50)"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace wtp::core
