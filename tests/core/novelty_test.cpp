#include "core/novelty.h"

#include <gtest/gtest.h>

#include "core/test_trace.h"
#include "features/split.h"

namespace wtp::core {
namespace {

log::WebTransaction txn(util::UnixSeconds ts, const std::string& user,
                        const std::string& category, const std::string& app,
                        const std::string& media) {
  log::WebTransaction t;
  t.timestamp = ts;
  t.user_id = user;
  t.category = category;
  t.application_type = app;
  t.media_type = media;
  return t;
}

TEST(FeatureNovelty, ZeroWhenVocabularySaturatesEarly) {
  // The user repeats the same (category, app, media) forever: after week 1
  // there is nothing novel.
  std::map<std::string, std::vector<log::WebTransaction>> by_user;
  for (int day = 0; day < 28; ++day) {
    by_user["u"].push_back(txn(day * util::kSecondsPerDay, "u", "Games",
                               "Steam", "text/html"));
  }
  const auto curves = feature_novelty(by_user, 0, 1, 3);
  for (const auto& [field, curve] : curves) {
    (void)field;
    ASSERT_EQ(curve.size(), 3u);
    for (const auto& point : curve) {
      EXPECT_DOUBLE_EQ(point.mean, 0.0);
      EXPECT_EQ(point.users, 1u);
    }
  }
}

TEST(FeatureNovelty, DetectsNewValuesAfterEpoch) {
  // Week 1: categories A, B.  Week 2+: categories B, C, D -> novelty at
  // t = 1 week is |{C, D}| / |{B, C, D}| = 2/3.
  std::map<std::string, std::vector<log::WebTransaction>> by_user;
  by_user["u"].push_back(txn(0, "u", "A", "app", "text/html"));
  by_user["u"].push_back(txn(1000, "u", "B", "app", "text/html"));
  const util::UnixSeconds week = util::kSecondsPerWeek;
  by_user["u"].push_back(txn(week + 10, "u", "B", "app", "text/html"));
  by_user["u"].push_back(txn(week + 20, "u", "C", "app", "text/html"));
  by_user["u"].push_back(txn(week + 30, "u", "D", "app", "text/html"));
  const auto curves = feature_novelty(by_user, 0, 1, 1);
  const auto& category_curve = curves.at(NoveltyField::kCategory);
  ASSERT_EQ(category_curve.size(), 1u);
  EXPECT_NEAR(category_curve[0].mean, 2.0 / 3.0, 1e-9);
  // Application type never changes: novelty 0.
  EXPECT_DOUBLE_EQ(curves.at(NoveltyField::kApplicationType)[0].mean, 0.0);
}

TEST(FeatureNovelty, SkipsUsersWithoutSubsequentData) {
  std::map<std::string, std::vector<log::WebTransaction>> by_user;
  by_user["early"] = {txn(0, "early", "A", "a", "text/html")};
  const auto curves = feature_novelty(by_user, 0, 1, 1);
  EXPECT_EQ(curves.at(NoveltyField::kCategory)[0].users, 0u);
}

TEST(FeatureNovelty, SyntheticTraceNoveltyDecreasesOverWeeks) {
  // The paper's core assumption (Fig. 1): novelty decreases as the observed
  // epoch grows.
  const auto& trace = testing::tiny_trace();
  const auto by_user = features::group_by_user(trace.transactions);
  const auto curves =
      feature_novelty(by_user, trace.config.start_time, 1,
                      trace.config.duration_weeks - 1);
  for (const auto& [field, curve] : curves) {
    ASSERT_GE(curve.size(), 2u) << to_string(field);
    EXPECT_LT(curve.back().mean, 0.5) << to_string(field);
    // Declining trend: last point below first point.
    EXPECT_LE(curve.back().mean, curve.front().mean + 0.05) << to_string(field);
  }
}

TEST(WindowNovelty, ZeroForExactlyRepeatingWindows) {
  // Identical isolated bursts produce identical window vectors: subsequent
  // windows all match observed ones.
  std::map<std::string, std::vector<log::WebTransaction>> by_user;
  for (int day = 0; day < 21; ++day) {
    by_user["u"].push_back(txn(day * util::kSecondsPerDay, "u", "Games",
                               "Steam", "text/html"));
  }
  const features::FeatureSchema schema =
      features::FeatureSchema::from_transactions(by_user["u"]);
  const auto curve = window_novelty(by_user, schema, {60, 30}, 0, 1, 2);
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_DOUBLE_EQ(curve[0].mean, 0.0);
  EXPECT_DOUBLE_EQ(curve[1].mean, 0.0);
}

TEST(WindowNovelty, OneForCompletelyNewBehaviour) {
  std::map<std::string, std::vector<log::WebTransaction>> by_user;
  by_user["u"].push_back(txn(0, "u", "A", "a1", "text/html"));
  // Placed >D past the epoch so no window straddles the boundary (windows
  // are attributed to observed/subsequent by their start time).
  by_user["u"].push_back(
      txn(util::kSecondsPerWeek + 100, "u", "B", "b2", "video/mp4"));
  const features::FeatureSchema schema =
      features::FeatureSchema::from_transactions(by_user["u"]);
  const auto curve = window_novelty(by_user, schema, {60, 30}, 0, 1, 1);
  ASSERT_EQ(curve.size(), 1u);
  EXPECT_DOUBLE_EQ(curve[0].mean, 1.0);
}

TEST(WindowNovelty, SyntheticTraceWindowNoveltyIsBounded) {
  const auto& trace = testing::tiny_trace();
  const auto by_user = features::group_by_user(trace.transactions);
  const features::FeatureSchema schema =
      features::FeatureSchema::from_transactions(trace.transactions);
  const auto curve = window_novelty(by_user, schema, {60, 30},
                                    trace.config.start_time, 1, 2);
  for (const auto& point : curve) {
    EXPECT_GE(point.mean, 0.0);
    EXPECT_LE(point.mean, 1.0);
    EXPECT_GT(point.users, 0u);
  }
}

TEST(Footprints, CountsDistinctValuesPerUser) {
  std::map<std::string, std::vector<log::WebTransaction>> by_user;
  by_user["a"] = {txn(0, "a", "C1", "A1", "text/html"),
                  txn(1, "a", "C2", "A1", "text/css")};
  by_user["b"] = {txn(0, "b", "C1", "A1", "text/html")};
  const FootprintStats stats = user_footprints(by_user);
  EXPECT_DOUBLE_EQ(stats.mean_categories, 1.5);          // (2 + 1) / 2
  EXPECT_DOUBLE_EQ(stats.mean_application_types, 1.0);
  EXPECT_DOUBLE_EQ(stats.mean_sub_types, 1.5);           // (html,css | html)
}

TEST(Footprints, MediaTypeWithoutSubTypeAddsNoSubType) {
  // A real proxy log writes "-" for a missing media type: it has no
  // sub-type, and the schema gives it no sub-type column.
  std::map<std::string, std::vector<log::WebTransaction>> by_user;
  by_user["a"] = {txn(0, "a", "C1", "A1", "text/html"),
                  txn(1, "a", "C1", "A1", "-"),
                  txn(2, "a", "C1", "A1", "video/")};
  const FootprintStats stats = user_footprints(by_user);
  EXPECT_DOUBLE_EQ(stats.mean_sub_types, 1.0);  // html only
  const auto schema = features::FeatureSchema::from_transactions(by_user["a"]);
  EXPECT_EQ(schema.group_size(features::FeatureGroup::kSubType), 1u);
}

TEST(Footprints, SyntheticUsersHaveSmallFootprints) {
  // Paper §IV-B: users cover a small fraction of each vocabulary.
  const auto& trace = testing::tiny_trace();
  const auto by_user = features::group_by_user(trace.transactions);
  const FootprintStats stats = user_footprints(by_user);
  EXPECT_GT(stats.mean_categories, 1.0);
  EXPECT_LT(stats.mean_categories,
            static_cast<double>(trace.config.site_pool.num_categories));
  EXPECT_LT(stats.mean_application_types,
            static_cast<double>(trace.config.site_pool.num_application_types));
}

TEST(NoveltyFieldNames, Stable) {
  EXPECT_EQ(to_string(NoveltyField::kCategory), "category");
  EXPECT_EQ(to_string(NoveltyField::kApplicationType), "application_type");
  EXPECT_EQ(to_string(NoveltyField::kMediaType), "media_type");
}

}  // namespace
}  // namespace wtp::core
