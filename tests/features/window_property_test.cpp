// Property test: WindowAggregator against a brute-force reference.
//
// The window fold skips empty windows with index jumps and merges
// pre-encoded vectors from a pruned buffer; the reference
// (features/window_reference.h) does neither — it walks every candidate
// window index and re-aggregates raw transactions.  On random gappy streams
// both must produce identical windows.
#include <gtest/gtest.h>

#include "features/window.h"
#include "features/window_reference.h"
#include "util/rng.h"

namespace wtp::features {
namespace {

FeatureSchema test_schema() {
  return FeatureSchema{{"Games", "News", "Email"},
                       {"text", "video"},
                       {"html", "mp4", "css"},
                       {"YouTube", "Slack"}};
}

log::WebTransaction random_txn(util::UnixSeconds ts, util::Rng& rng) {
  log::WebTransaction txn;
  txn.timestamp = ts;
  const char* categories[] = {"Games", "News", "Email", "Unknown"};
  const char* media[] = {"text/html", "video/mp4", "text/css", "audio/wav"};
  const char* apps[] = {"YouTube", "Slack", "Other"};
  txn.category = categories[rng.uniform_index(4)];
  txn.media_type = media[rng.uniform_index(4)];
  txn.application_type = apps[rng.uniform_index(3)];
  txn.action = static_cast<log::HttpAction>(rng.uniform_index(4));
  txn.scheme = rng.bernoulli(0.5) ? log::UriScheme::kHttps : log::UriScheme::kHttp;
  txn.reputation = static_cast<log::Reputation>(rng.uniform_index(4));
  txn.private_destination = rng.bernoulli(0.1);
  return txn;
}

TEST(WindowAggregatorProperty, MatchesBruteForceOnRandomStreams) {
  const FeatureSchema schema = test_schema();
  util::Rng rng{4242};
  for (int trial = 0; trial < 30; ++trial) {
    const WindowConfig config{
        static_cast<util::UnixSeconds>(20 + rng.uniform_index(100)),
        static_cast<util::UnixSeconds>(5 + rng.uniform_index(30))};
    if (config.shift_s > config.duration_s) continue;

    std::vector<log::WebTransaction> txns;
    util::UnixSeconds now = static_cast<util::UnixSeconds>(rng.uniform_index(10000));
    const std::size_t count = 5 + rng.uniform_index(150);
    for (std::size_t i = 0; i < count; ++i) {
      now += rng.bernoulli(0.06)
                 ? static_cast<util::UnixSeconds>(600 + rng.uniform_index(7200))
                 : static_cast<util::UnixSeconds>(rng.uniform_index(15));
      txns.push_back(random_txn(now, rng));
    }

    const WindowAggregator aggregator{schema, config};
    const auto fast = aggregator.aggregate(txns);
    const auto slow = testing::reference_aggregate(schema, config, txns);
    ASSERT_EQ(fast.size(), slow.size()) << "trial " << trial;
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_EQ(fast[i].start, slow[i].start) << "trial " << trial;
      ASSERT_EQ(fast[i].end, slow[i].end) << "trial " << trial;
      ASSERT_EQ(fast[i].transaction_count, slow[i].transaction_count)
          << "trial " << trial;
      ASSERT_EQ(fast[i].features, slow[i].features) << "trial " << trial;
    }
  }
}

TEST(WindowAggregatorProperty, EveryTransactionAppearsInAtLeastOneWindow) {
  const FeatureSchema schema = test_schema();
  util::Rng rng{7};
  const WindowConfig config{60, 30};
  std::vector<log::WebTransaction> txns;
  util::UnixSeconds now = 0;
  for (int i = 0; i < 200; ++i) {
    now += static_cast<util::UnixSeconds>(rng.uniform_index(200));
    txns.push_back(random_txn(now, rng));
  }
  const WindowAggregator aggregator{schema, config};
  const auto windows = aggregator.aggregate(txns);
  std::size_t covered = 0;
  for (const auto& txn : txns) {
    bool found = false;
    for (const auto& window : windows) {
      if (txn.timestamp >= window.start && txn.timestamp < window.end) {
        found = true;
        break;
      }
    }
    if (found) ++covered;
  }
  EXPECT_EQ(covered, txns.size());
}

TEST(WindowAggregatorProperty, TotalCountsAreConsistentWithOverlap) {
  // With S = D (no overlap) the window transaction counts partition the
  // stream exactly.
  const FeatureSchema schema = test_schema();
  util::Rng rng{8};
  const WindowConfig config{60, 60};
  std::vector<log::WebTransaction> txns;
  util::UnixSeconds now = 0;
  for (int i = 0; i < 300; ++i) {
    now += static_cast<util::UnixSeconds>(rng.uniform_index(90));
    txns.push_back(random_txn(now, rng));
  }
  const WindowAggregator aggregator{schema, config};
  std::size_t total = 0;
  for (const auto& window : aggregator.aggregate(txns)) {
    total += window.transaction_count;
  }
  EXPECT_EQ(total, txns.size());
}

}  // namespace
}  // namespace wtp::features
