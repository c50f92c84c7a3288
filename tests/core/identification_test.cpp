#include "core/identification.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/test_trace.h"
#include "features/split.h"

namespace wtp::core {
namespace {

IdentificationEvent event(const std::string& truth,
                          std::vector<std::string> accepted) {
  IdentificationEvent e;
  e.true_user = truth;
  e.accepted_by = std::move(accepted);
  return e;
}

TEST(DecideSingle, UniqueAcceptorWins) {
  EXPECT_EQ(UserIdentifier::decide_single(event("a", {"a"})), "a");
  EXPECT_EQ(UserIdentifier::decide_single(event("a", {"b"})), "b");
}

TEST(DecideSingle, AmbiguousOrEmptyIsUndecided) {
  EXPECT_EQ(UserIdentifier::decide_single(event("a", {"a", "b"})), "");
  EXPECT_EQ(UserIdentifier::decide_single(event("a", {})), "");
}

TEST(DecideConsecutive, RequiresFullRun) {
  const std::vector<IdentificationEvent> events{
      event("a", {"a", "b"}), event("a", {"a", "b"}), event("a", {"a"})};
  // "a" accepted in all 3; "b" only in the first two.
  EXPECT_EQ(UserIdentifier::decide_consecutive(events, 3), "a");
  // Over the last 2 windows only "a" holds as well.
  EXPECT_EQ(UserIdentifier::decide_consecutive(events, 2), "a");
}

TEST(DecideConsecutive, AmbiguousWhenTwoUsersSpanRun) {
  const std::vector<IdentificationEvent> events{event("a", {"a", "b"}),
                                                event("a", {"a", "b"})};
  EXPECT_EQ(UserIdentifier::decide_consecutive(events, 2), "");
}

TEST(DecideConsecutive, ShortHistoryOrZeroRunIsUndecided) {
  const std::vector<IdentificationEvent> events{event("a", {"a"})};
  EXPECT_EQ(UserIdentifier::decide_consecutive(events, 2), "");
  EXPECT_EQ(UserIdentifier::decide_consecutive(events, 0), "");
}

TEST(SummarizeEvents, CountsDecisionsAndHits) {
  const std::vector<IdentificationEvent> events{
      event("a", {"a"}),        // decided, correct, true hit
      event("a", {"b"}),        // decided, wrong
      event("a", {"a", "b"}),   // undecided, true hit
      event("b", {}),           // undecided, no hit
  };
  const IdentificationMetrics metrics = summarize_events(events);
  EXPECT_EQ(metrics.windows, 4u);
  EXPECT_EQ(metrics.decided, 2u);
  EXPECT_EQ(metrics.correct, 1u);
  EXPECT_EQ(metrics.true_user_hits, 2u);
  EXPECT_DOUBLE_EQ(metrics.decision_accuracy(), 0.5);
  EXPECT_DOUBLE_EQ(metrics.true_acceptance(), 0.5);
}

TEST(SummarizeEvents, EmptyStreamIsAllZero) {
  const IdentificationMetrics metrics = summarize_events({});
  EXPECT_EQ(metrics.windows, 0u);
  EXPECT_DOUBLE_EQ(metrics.decision_accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.true_acceptance(), 0.0);
}

TEST(SmoothingSweep, LongerRunsAreMoreSelective) {
  // Stream where a competing model fires intermittently: run length 1 is
  // often ambiguous; run length 2 decides for the true user.
  std::vector<IdentificationEvent> events;
  for (int i = 0; i < 20; ++i) {
    events.push_back(i % 2 == 0 ? event("a", {"a", "b"}) : event("a", {"a"}));
  }
  const std::vector<std::size_t> runs{1, 2};
  const auto points = smoothing_sweep(events, runs);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].run_length, 1u);
  // Run 1: decisions only on odd windows (10 of 20), all correct.
  EXPECT_EQ(points[0].decided, 10u);
  EXPECT_DOUBLE_EQ(points[0].accuracy(), 1.0);
  // Run 2: every pair contains one {"a"}-only window -> "b" never spans.
  EXPECT_EQ(points[1].decided, 19u);
  EXPECT_DOUBLE_EQ(points[1].accuracy(), 1.0);
}

TEST(ProducerTally, StrictCountSmallestUserOnTieAndPruning) {
  ProducerTally tally;
  tally.add(0, "bob");
  tally.add(10, "carol");
  tally.add(40, "alice");
  tally.add(45, "carol");
  EXPECT_EQ(tally.majority(0, 30), "bob");     // bob 1, carol 1: tie
  EXPECT_EQ(tally.majority(0, 60), "carol");   // carol 2: strict
  EXPECT_EQ(tally.majority(30, 90), "alice");  // alice 1, carol 1: tie
  EXPECT_EQ(tally.producers().size(), 2u);     // t=0 and t=10 pruned
  EXPECT_EQ(tally.majority(60, 120), "");
  EXPECT_TRUE(tally.producers().empty());
}

TEST(UserIdentifier, MonitorProducesGroundTruthAndAcceptance) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const features::WindowConfig window{60, 30};

  // Train a profile per user on training windows.
  std::vector<UserProfile> profiles;
  for (const auto& user : dataset.user_ids()) {
    ProfileParams params;
    params.type = ClassifierType::kSvdd;
    params.kernel = {svm::KernelType::kLinear, 0.0, 0.0, 3};
    params.regularizer = 0.5;
    profiles.push_back(UserProfile::train(user,
                                          *dataset.train_matrix(user, window),
                                          dataset.schema().dimension(), params));
  }
  const UserIdentifier identifier{profiles, dataset.schema(), window};

  // Monitor the busiest device.
  const auto by_device = features::group_by_device(testing::tiny_trace().transactions);
  const auto busiest = std::max_element(
      by_device.begin(), by_device.end(), [](const auto& a, const auto& b) {
        return a.second.size() < b.second.size();
      });
  ASSERT_NE(busiest, by_device.end());
  const auto events = identifier.monitor(busiest->second);
  ASSERT_FALSE(events.empty());

  for (const auto& e : events) {
    EXPECT_FALSE(e.true_user.empty());
    EXPECT_GT(e.transaction_count, 0u);
    EXPECT_LT(e.window_start, e.window_end);
  }
  // The true user's model should accept a decent share of windows.
  const IdentificationMetrics metrics = summarize_events(events);
  EXPECT_GT(metrics.true_acceptance(), 0.4);
}

TEST(UserIdentifier, RejectsEmptyProfileSet) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  EXPECT_THROW(
      (UserIdentifier{{}, dataset.schema(), features::WindowConfig{60, 30}}),
      std::invalid_argument);
}

TEST(IdentificationEventAccepted, FindsUser) {
  const IdentificationEvent e = event("a", {"a", "c"});
  EXPECT_TRUE(e.accepted("a"));
  EXPECT_TRUE(e.accepted("c"));
  EXPECT_FALSE(e.accepted("b"));
}

}  // namespace
}  // namespace wtp::core
