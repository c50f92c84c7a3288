#include "serve/session.h"

#include <gtest/gtest.h>

#include <sstream>

#include "serve/serve_test_util.h"

namespace wtp::serve {
namespace {

log::WebTransaction txn(util::UnixSeconds ts, const char* user) {
  log::WebTransaction t;
  t.timestamp = ts;
  t.user_id = user;
  t.device_id = "shared-pc";
  t.category = "Games";
  return t;
}

TEST(DeviceSession, GroundTruthMatchesMonitorOnTiesAndMajorities) {
  // D=60, S=30 windows from t=0:
  //   [0,60)    bob 1, alice 2, carol 2 -> tie, alice (smallest)
  //   [30,90)   carol 2, bob 1          -> carol; without pruning the
  //                                        producers before 30 it would be
  //                                        a three-way tie won by alice
  //   [60,120)  bob 2, carol 1          -> bob
  //   [90,150)  carol 1, bob 1          -> tie, bob although carol came first
  const std::vector<log::WebTransaction> stream{
      txn(0, "bob"),    txn(10, "alice"), txn(20, "alice"), txn(40, "carol"),
      txn(50, "carol"), txn(70, "bob"),   txn(100, "carol"), txn(110, "bob")};
  const std::vector<std::string> expected{"alice", "carol", "bob", "bob"};
  const core::ProfileStore& store = testing::tiny_store();
  const features::WindowConfig window{60, 30};

  const core::UserIdentifier identifier{store.profiles(), store.schema(), window};
  std::vector<std::string> monitored;
  for (const auto& event : identifier.monitor(stream)) {
    monitored.push_back(event.true_user);
  }
  EXPECT_EQ(monitored, expected);

  // The session is snapshotted and restored after the first two windows,
  // so the pruned tally's producer records round-trip too.
  DeviceSession session{"shared-pc", store.schema(), window, 1};
  std::vector<std::string> served;
  const auto collect = [&served](const std::vector<PendingWindow>& pending) {
    for (const auto& item : pending) served.push_back(item.true_user);
  };
  for (std::size_t i = 0; i < 7; ++i) collect(session.push(stream[i]));
  std::stringstream snapshot;
  session.save(snapshot);
  DeviceSession restored =
      DeviceSession::restore(snapshot, store.schema(), window, 1);
  for (std::size_t i = 7; i < stream.size(); ++i) collect(restored.push(stream[i]));
  collect(restored.flush());
  EXPECT_EQ(served, expected);
}

}  // namespace
}  // namespace wtp::serve
