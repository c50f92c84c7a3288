#include "features/split.h"

#include <gtest/gtest.h>

#include "core/test_trace.h"

namespace wtp::features {
namespace {

log::WebTransaction make_txn(util::UnixSeconds ts, const std::string& user,
                             const std::string& device) {
  log::WebTransaction txn;
  txn.timestamp = ts;
  txn.user_id = user;
  txn.device_id = device;
  return txn;
}

std::vector<log::WebTransaction> sample_txns() {
  return {make_txn(10, "alice", "d1"), make_txn(20, "bob", "d1"),
          make_txn(30, "alice", "d2"), make_txn(40, "alice", "d1"),
          make_txn(50, "bob", "d2")};
}

TEST(GroupBy, UserGroupsPreserveTimeOrder) {
  const auto txns = sample_txns();
  const auto groups = group_by_user(txns);
  ASSERT_EQ(groups.size(), 2u);
  ASSERT_EQ(groups.at("alice").size(), 3u);
  ASSERT_EQ(groups.at("bob").size(), 2u);
  EXPECT_EQ(groups.at("alice")[0].timestamp, 10);
  EXPECT_EQ(groups.at("alice")[2].timestamp, 40);
}

TEST(GroupBy, DeviceGroups) {
  const auto txns = sample_txns();
  const auto groups = group_by_device(txns);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups.at("d1").size(), 3u);
  EXPECT_EQ(groups.at("d2").size(), 2u);
}

TEST(GroupBy, DeviceGroupingCoversAllTransactions) {
  const auto& trace = core::testing::tiny_trace();
  std::size_t device_total = 0;
  for (const auto& [device, txns] : group_by_device(trace.transactions)) {
    EXPECT_FALSE(device.empty());
    device_total += txns.size();
  }
  EXPECT_EQ(device_total, trace.transactions.size());
}

TEST(GroupBy, EmptyInput) {
  EXPECT_TRUE(group_by_user({}).empty());
  EXPECT_TRUE(group_by_device({}).empty());
}

TEST(EpochSplit, PartitionsAtDelimiter) {
  std::vector<log::WebTransaction> txns;
  for (int i = 0; i < 10; ++i) txns.push_back(make_txn(i * 100, "u", "d"));
  const auto split = epoch_split(txns, 450);
  ASSERT_EQ(split.observed.size(), 5u);  // 0..400
  ASSERT_EQ(split.subsequent.size(), 5u);  // 500..900
  EXPECT_EQ(split.observed.back().timestamp, 400);
  EXPECT_EQ(split.subsequent.front().timestamp, 500);
}

TEST(EpochSplit, DelimiterExactlyOnTransactionGoesToSubsequent) {
  std::vector<log::WebTransaction> txns{make_txn(100, "u", "d")};
  const auto split = epoch_split(txns, 100);
  EXPECT_TRUE(split.observed.empty());
  ASSERT_EQ(split.subsequent.size(), 1u);
}

TEST(EpochSplit, AllBeforeOrAfter) {
  std::vector<log::WebTransaction> txns{make_txn(10, "u", "d"),
                                        make_txn(20, "u", "d")};
  EXPECT_EQ(epoch_split(txns, 1000).observed.size(), 2u);
  EXPECT_EQ(epoch_split(txns, 0).subsequent.size(), 2u);
}

}  // namespace
}  // namespace wtp::features
