#include "features/window.h"

#include <gtest/gtest.h>

namespace wtp::features {
namespace {

FeatureSchema test_schema() {
  return FeatureSchema{{"Games", "Messaging"},
                       {"text", "video"},
                       {"html", "mp4"},
                       {"YouTube", "Slack"}};
}

log::WebTransaction txn_at(util::UnixSeconds ts) {
  log::WebTransaction txn;
  txn.timestamp = ts;
  txn.action = log::HttpAction::kGet;
  txn.scheme = log::UriScheme::kHttp;
  txn.category = "Games";
  txn.media_type = "text/html";
  txn.application_type = "YouTube";
  txn.reputation = log::Reputation::kMinimalRisk;
  return txn;
}

TEST(WindowAggregator, RejectsInvalidConfig) {
  const FeatureSchema schema = test_schema();
  EXPECT_THROW((WindowAggregator{schema, {60, 0}}), std::invalid_argument);
  EXPECT_THROW((WindowAggregator{schema, {60, 61}}), std::invalid_argument);
  EXPECT_THROW((WindowAggregator{schema, {0, 0}}), std::invalid_argument);
  EXPECT_NO_THROW((WindowAggregator{schema, {60, 60}}));
}

TEST(WindowAggregator, RejectsOutOfOrderTransactions) {
  const FeatureSchema schema = test_schema();
  const WindowAggregator aggregator{schema, {60, 30}};
  const std::vector<log::WebTransaction> txns{txn_at(0), txn_at(100), txn_at(40)};
  EXPECT_THROW((void)aggregator.aggregate(txns), std::invalid_argument);
}

TEST(WindowAggregator, PaperWorkedExample) {
  // Paper §III-C: three transactions with features
  //   CONNECT | HTTP | reputation | verified | Messaging
  //      1       1        0           1           0
  //      0       0        0.5         1           0
  //      0       1        0           0           0
  // aggregate to 1 | 1 | 0.167 | 0.667 | 0.
  const FeatureSchema schema = test_schema();
  const WindowAggregator aggregator{schema, {60, 30}};

  log::WebTransaction t1 = txn_at(0);
  t1.action = log::HttpAction::kConnect;
  t1.scheme = log::UriScheme::kHttp;
  t1.reputation = log::Reputation::kMinimalRisk;  // risk 0, verified 1

  log::WebTransaction t2 = txn_at(10);
  t2.action = log::HttpAction::kGet;              // not CONNECT
  t2.scheme = log::UriScheme::kHttps;             // not HTTP
  t2.reputation = log::Reputation::kMediumRisk;   // risk 0.5, verified 1

  log::WebTransaction t3 = txn_at(20);
  t3.action = log::HttpAction::kPost;
  t3.scheme = log::UriScheme::kHttp;
  t3.reputation = log::Reputation::kUnverified;   // risk 0, verified 0

  const std::vector<log::WebTransaction> txns{t1, t2, t3};
  const util::SparseVector v = aggregator.aggregate_single(txns);

  EXPECT_DOUBLE_EQ(v.at(schema.http_action_column(log::HttpAction::kConnect)), 1.0);
  EXPECT_DOUBLE_EQ(v.at(schema.uri_scheme_column(log::UriScheme::kHttp)), 1.0);
  EXPECT_NEAR(v.at(schema.reputation_risk_column()), 0.5 / 3.0, 1e-9);   // 0.167
  EXPECT_NEAR(v.at(schema.reputation_verified_column()), 2.0 / 3.0, 1e-9);  // 0.667
  EXPECT_DOUBLE_EQ(v.at(*schema.category_column("Messaging")), 0.0);
}

TEST(WindowAggregator, EmptyInputYieldsEmptyVector) {
  const FeatureSchema schema = test_schema();
  const WindowAggregator aggregator{schema, {60, 30}};
  EXPECT_TRUE(aggregator.aggregate_single({}).empty());
  EXPECT_TRUE(aggregator.aggregate({}).empty());
}

TEST(WindowAggregator, BinaryColumnsUseDisjunctionNotSum) {
  const FeatureSchema schema = test_schema();
  const WindowAggregator aggregator{schema, {60, 30}};
  const std::vector<log::WebTransaction> txns{txn_at(0), txn_at(1), txn_at(2)};
  const util::SparseVector v = aggregator.aggregate_single(txns);
  EXPECT_DOUBLE_EQ(v.at(schema.http_action_column(log::HttpAction::kGet)), 1.0);
  EXPECT_DOUBLE_EQ(v.at(*schema.category_column("Games")), 1.0);
}

TEST(WindowAggregator, PrivateFlagIsAveraged) {
  const FeatureSchema schema = test_schema();
  const WindowAggregator aggregator{schema, {60, 30}};
  auto t1 = txn_at(0);
  t1.private_destination = true;
  auto t2 = txn_at(1);
  auto t3 = txn_at(2);
  auto t4 = txn_at(3);
  const std::vector<log::WebTransaction> txns{t1, t2, t3, t4};
  EXPECT_NEAR(aggregator.aggregate_single(txns).at(schema.private_flag_column()),
              0.25, 1e-12);
}

TEST(WindowAggregator, WindowBoundariesAreHalfOpen) {
  const FeatureSchema schema = test_schema();
  const WindowAggregator aggregator{schema, {60, 60}};
  // Transactions at t=0, 59 fall in window [0, 60); t=60 starts the next.
  const std::vector<log::WebTransaction> txns{txn_at(1000), txn_at(1059),
                                              txn_at(1060)};
  const auto windows = aggregator.aggregate(txns);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].start, 1000);
  EXPECT_EQ(windows[0].end, 1060);
  EXPECT_EQ(windows[0].transaction_count, 2u);
  EXPECT_EQ(windows[1].transaction_count, 1u);
}

TEST(WindowAggregator, OverlappingWindowsShareTransactions) {
  const FeatureSchema schema = test_schema();
  const WindowAggregator aggregator{schema, {60, 30}};
  // One transaction at t=40 appears in windows starting at 0 and 30 (but 40
  // is the origin here, so windows start at 40 and 70...).  Use two txns.
  const std::vector<log::WebTransaction> txns{txn_at(0), txn_at(45)};
  const auto windows = aggregator.aggregate(txns);
  // Window k=0 [0,60): both txns; k=1 [30,90): txn at 45.
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].transaction_count, 2u);
  EXPECT_EQ(windows[1].transaction_count, 1u);
}

TEST(WindowAggregator, EmptyWindowsAreSkipped) {
  const FeatureSchema schema = test_schema();
  const WindowAggregator aggregator{schema, {60, 30}};
  // Two bursts separated by a 1-hour gap: no empty windows in between.
  std::vector<log::WebTransaction> txns{txn_at(0), txn_at(10), txn_at(3600),
                                        txn_at(3610)};
  const auto windows = aggregator.aggregate(txns);
  for (const auto& window : windows) {
    ASSERT_GT(window.transaction_count, 0u);
  }
  // Windows: [0,60) and the burst at 3600 covered by up to two overlapping
  // windows anchored on the 30s grid.
  ASSERT_GE(windows.size(), 2u);
  for (std::size_t i = 1; i < windows.size(); ++i) {
    ASSERT_GT(windows[i].start, windows[i - 1].start);
  }
}

TEST(WindowAggregator, TransactionAtAnEmptyWindowsEndOpensTheNextOne) {
  // With D = 60 and S = 30, window [30, 90) holds nothing: the transaction
  // at 90 lies on its exclusive end, so the fold skips to [60, 120).
  const FeatureSchema schema = test_schema();
  const WindowAggregator aggregator{schema, {60, 30}};
  const std::vector<log::WebTransaction> txns{txn_at(0), txn_at(10), txn_at(90)};
  const auto windows = aggregator.aggregate(txns);
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].start, 0);
  EXPECT_EQ(windows[0].transaction_count, 2u);
  EXPECT_EQ(windows[1].start, 60);
  EXPECT_EQ(windows[1].transaction_count, 1u);
  EXPECT_EQ(windows[2].start, 90);
  EXPECT_EQ(windows[2].transaction_count, 1u);
}

TEST(WindowAggregator, WindowCountScalesWithShift) {
  const FeatureSchema schema = test_schema();
  std::vector<log::WebTransaction> txns;
  for (int i = 0; i < 600; ++i) txns.push_back(txn_at(i));
  const auto coarse = WindowAggregator{schema, {60, 60}}.aggregate(txns);
  const auto fine = WindowAggregator{schema, {60, 6}}.aggregate(txns);
  // 10x smaller shift -> ~10x more windows.
  EXPECT_GT(fine.size(), coarse.size() * 8);
  EXPECT_LT(fine.size(), coarse.size() * 12);
}

TEST(WindowAggregator, AggregateMatchesAggregateSingleOnIsolatedBurst) {
  const FeatureSchema schema = test_schema();
  const WindowAggregator aggregator{schema, {60, 60}};
  auto t1 = txn_at(100);
  t1.reputation = log::Reputation::kHighRisk;
  auto t2 = txn_at(110);
  t2.media_type = "video/mp4";
  const std::vector<log::WebTransaction> txns{t1, t2};
  const auto windows = aggregator.aggregate(txns);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].features, aggregator.aggregate_single(txns));
}

TEST(WindowVectors, ExtractsFeaturesInOrder) {
  const FeatureSchema schema = test_schema();
  const WindowAggregator aggregator{schema, {60, 60}};
  const std::vector<log::WebTransaction> txns{txn_at(0), txn_at(120)};
  const auto windows = aggregator.aggregate(txns);
  const auto vectors = window_vectors(windows);
  ASSERT_EQ(vectors.size(), windows.size());
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    EXPECT_EQ(vectors[i], windows[i].features);
  }
}

}  // namespace
}  // namespace wtp::features
