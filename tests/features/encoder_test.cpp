#include "features/encoder.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace wtp::features {
namespace {

FeatureSchema test_schema() {
  return FeatureSchema{{"Games", "Messaging"},
                       {"text", "video"},
                       {"html", "mp4"},
                       {"YouTube", "Slack"}};
}

/// The encoding's value at `column` (0.0 when absent).
double value_at(const EncodedTransaction& encoded, std::size_t column) {
  const auto entries = encoded.entries();
  const auto it = std::ranges::find(entries, column, &EncodedTransaction::Entry::index);
  return it == entries.end() ? 0.0 : it->value;
}

log::WebTransaction base_txn() {
  log::WebTransaction txn;
  txn.action = log::HttpAction::kGet;
  txn.scheme = log::UriScheme::kHttp;
  txn.category = "Games";
  txn.media_type = "text/html";
  txn.application_type = "YouTube";
  txn.reputation = log::Reputation::kMinimalRisk;
  return txn;
}

TEST(TransactionEncoder, SetsBagOfWordsColumns) {
  const FeatureSchema schema = test_schema();
  const TransactionEncoder encoder{schema};
  const EncodedTransaction v = encoder.encode(base_txn());
  EXPECT_DOUBLE_EQ(value_at(v, schema.http_action_column(log::HttpAction::kGet)), 1.0);
  EXPECT_DOUBLE_EQ(value_at(v, schema.uri_scheme_column(log::UriScheme::kHttp)), 1.0);
  EXPECT_DOUBLE_EQ(value_at(v, *schema.category_column("Games")), 1.0);
  EXPECT_DOUBLE_EQ(value_at(v, *schema.super_type_column("text")), 1.0);
  EXPECT_DOUBLE_EQ(value_at(v, *schema.sub_type_column("html")), 1.0);
  EXPECT_DOUBLE_EQ(value_at(v, *schema.application_type_column("YouTube")), 1.0);
  // Columns for the absent values stay zero.
  EXPECT_DOUBLE_EQ(value_at(v, schema.http_action_column(log::HttpAction::kPost)), 0.0);
  EXPECT_DOUBLE_EQ(value_at(v, *schema.category_column("Messaging")), 0.0);
}

TEST(TransactionEncoder, VerifiedMinimalRiskReputation) {
  const FeatureSchema schema = test_schema();
  const TransactionEncoder encoder{schema};
  const EncodedTransaction v = encoder.encode(base_txn());
  // Minimal risk: risk value 0 (no entry), verified flag 1.
  EXPECT_DOUBLE_EQ(value_at(v, schema.reputation_risk_column()), 0.0);
  EXPECT_DOUBLE_EQ(value_at(v, schema.reputation_verified_column()), 1.0);
}

TEST(TransactionEncoder, HighRiskReputation) {
  const FeatureSchema schema = test_schema();
  const TransactionEncoder encoder{schema};
  auto txn = base_txn();
  txn.reputation = log::Reputation::kHighRisk;
  const EncodedTransaction v = encoder.encode(txn);
  EXPECT_DOUBLE_EQ(value_at(v, schema.reputation_risk_column()), 1.0);
  EXPECT_DOUBLE_EQ(value_at(v, schema.reputation_verified_column()), 1.0);
}

TEST(TransactionEncoder, UnverifiedReputationDefaultsToMinimal) {
  const FeatureSchema schema = test_schema();
  const TransactionEncoder encoder{schema};
  auto txn = base_txn();
  txn.reputation = log::Reputation::kUnverified;
  const EncodedTransaction v = encoder.encode(txn);
  // Paper §III-B: unverified -> risk defaults to Minimal = 0, verified = 0.
  EXPECT_DOUBLE_EQ(value_at(v, schema.reputation_risk_column()), 0.0);
  EXPECT_DOUBLE_EQ(value_at(v, schema.reputation_verified_column()), 0.0);
}

TEST(TransactionEncoder, PrivateDestinationFlag) {
  const FeatureSchema schema = test_schema();
  const TransactionEncoder encoder{schema};
  auto txn = base_txn();
  txn.private_destination = true;
  EXPECT_DOUBLE_EQ(value_at(encoder.encode(txn), schema.private_flag_column()), 1.0);
  txn.private_destination = false;
  EXPECT_DOUBLE_EQ(value_at(encoder.encode(txn), schema.private_flag_column()), 0.0);
}

TEST(TransactionEncoder, OutOfVocabularyValuesAreIgnored) {
  const FeatureSchema schema = test_schema();
  const TransactionEncoder encoder{schema};
  auto txn = base_txn();
  txn.category = "UnknownCategory";
  txn.media_type = "audio/wav";
  txn.application_type = "UnknownApp";
  const EncodedTransaction v = encoder.encode(txn);
  // Only action, scheme and verified columns remain set.
  EXPECT_EQ(v.nnz(), 3u);
}

TEST(TransactionEncoder, ConnectHttpsTransaction) {
  const FeatureSchema schema = test_schema();
  const TransactionEncoder encoder{schema};
  auto txn = base_txn();
  txn.action = log::HttpAction::kConnect;
  txn.scheme = log::UriScheme::kHttps;
  const EncodedTransaction v = encoder.encode(txn);
  EXPECT_DOUBLE_EQ(value_at(v, schema.http_action_column(log::HttpAction::kConnect)), 1.0);
  EXPECT_DOUBLE_EQ(value_at(v, schema.uri_scheme_column(log::UriScheme::kHttps)), 1.0);
  EXPECT_DOUBLE_EQ(value_at(v, schema.uri_scheme_column(log::UriScheme::kHttp)), 0.0);
}

TEST(TransactionEncoder, AllValuesInUnitInterval) {
  const FeatureSchema schema = test_schema();
  const TransactionEncoder encoder{schema};
  for (const auto rep : {log::Reputation::kUnverified, log::Reputation::kMediumRisk,
                         log::Reputation::kHighRisk}) {
    auto txn = base_txn();
    txn.reputation = rep;
    txn.private_destination = true;
    const EncodedTransaction encoded = encoder.encode(txn);
    for (const auto& entry : encoded.entries()) {
      ASSERT_GE(entry.value, 0.0);
      ASSERT_LE(entry.value, 1.0);
      ASSERT_LT(entry.index, schema.dimension());
    }
  }
}

TEST(TransactionEncoder, EntriesAreStrictlyAscendingAndFitInline) {
  // Every field set: all nine groups emit an entry, in column order.
  const FeatureSchema schema = test_schema();
  const TransactionEncoder encoder{schema};
  auto txn = base_txn();
  txn.reputation = log::Reputation::kMediumRisk;
  txn.private_destination = true;
  const EncodedTransaction encoded = encoder.encode(txn);
  ASSERT_EQ(encoded.nnz(), EncodedTransaction::kMaxEntries);
  for (std::size_t i = 1; i < encoded.nnz(); ++i) {
    EXPECT_LT(encoded.entries()[i - 1].index, encoded.entries()[i].index);
  }
}

}  // namespace
}  // namespace wtp::features
