#include "synthetic/pools.h"

#include <gtest/gtest.h>

#include <set>

#include "log/transaction.h"

namespace wtp::synthetic {
namespace {

template <typename Pool>
std::set<std::string> unique_of(const Pool& pool) {
  return {pool.begin(), pool.end()};
}

TEST(CategoryPool, PaperScaleSizeAndUniqueness) {
  const auto pool = category_pool(kPaperCategoryCount);
  EXPECT_EQ(pool.size(), 105u);
  EXPECT_EQ(unique_of(pool).size(), 105u);
}

TEST(CategoryPool, ContainsPaperExamples) {
  const auto pool = category_pool(kPaperCategoryCount);
  const auto values = unique_of(pool);
  // The paper's example categories (§III-A): Restaurants, Phishing,
  // Messaging, Games.
  EXPECT_TRUE(values.contains("Restaurants"));
  EXPECT_TRUE(values.contains("Phishing"));
  EXPECT_TRUE(values.contains("Messaging"));
  EXPECT_TRUE(values.contains("Games"));
}

TEST(CategoryPool, ExtendsBeyondCuratedValues) {
  const auto pool = category_pool(150);
  EXPECT_EQ(pool.size(), 150u);
  EXPECT_EQ(unique_of(pool).size(), 150u);
}

TEST(CategoryPool, TruncatesToRequestedCount) {
  EXPECT_EQ(category_pool(10).size(), 10u);
  EXPECT_TRUE(category_pool(0).empty());
}

TEST(MediaSuperTypePool, ExactlyEightMimeSuperTypes) {
  const auto pool = media_super_type_pool();
  EXPECT_EQ(pool.size(), 8u);  // Tab. I: supertype count = 8
  EXPECT_EQ(unique_of(pool).size(), 8u);
  const auto values = unique_of(pool);
  EXPECT_TRUE(values.contains("text"));
  EXPECT_TRUE(values.contains("video"));
  EXPECT_TRUE(values.contains("application"));
}

TEST(MediaTypePool, PaperScaleSubTypeCount) {
  const auto pool = media_type_pool(kPaperSubTypeCount);
  EXPECT_EQ(pool.size(), 257u);
  EXPECT_EQ(unique_of(pool).size(), 257u);
  // Every entry must split into one of the 8 super-types.
  const auto supers = unique_of(media_super_type_pool());
  std::set<std::string> distinct_subtypes;
  for (const auto& media : pool) {
    const auto parts = log::split_media_type(media);
    ASSERT_TRUE(supers.contains(std::string{parts.super_type})) << media;
    ASSERT_FALSE(parts.sub_type.empty()) << media;
    distinct_subtypes.emplace(parts.sub_type);
  }
  EXPECT_EQ(distinct_subtypes.size(), 257u);
}

TEST(MediaTypePool, ContainsPaperExamples) {
  const auto values = unique_of(media_type_pool(kPaperSubTypeCount));
  // Paper §III-A examples: video/mp4, text/plain, audio/wav.
  EXPECT_TRUE(values.contains("video/mp4"));
  EXPECT_TRUE(values.contains("text/plain"));
  EXPECT_TRUE(values.contains("audio/wav"));
}

TEST(ApplicationTypePool, PaperScaleSizeAndUniqueness) {
  const auto pool = application_type_pool(kPaperApplicationTypeCount);
  EXPECT_EQ(pool.size(), 464u);
  EXPECT_EQ(unique_of(pool).size(), 464u);
}

TEST(ApplicationTypePool, ContainsPaperExamples) {
  const auto values = unique_of(application_type_pool(kPaperApplicationTypeCount));
  // Paper §III-A examples: Rhapsody, CloudFlare, Speedyshare.
  EXPECT_TRUE(values.contains("Rhapsody"));
  EXPECT_TRUE(values.contains("CloudFlare"));
  EXPECT_TRUE(values.contains("Speedyshare"));
}

TEST(ApplicationTypePool, ScalesToThousands) {
  const auto pool = application_type_pool(4000);
  EXPECT_EQ(pool.size(), 4000u);
  EXPECT_EQ(unique_of(pool).size(), 4000u);
}

TEST(Pools, AreDeterministic) {
  EXPECT_EQ(category_pool(105), category_pool(105));
  EXPECT_EQ(media_type_pool(257), media_type_pool(257));
  EXPECT_EQ(application_type_pool(464), application_type_pool(464));
}

}  // namespace
}  // namespace wtp::synthetic
