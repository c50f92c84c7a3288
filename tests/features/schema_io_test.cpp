#include "features/schema_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "synthetic/pools.h"

namespace wtp::features {
namespace {

FeatureSchema sample_schema() {
  return FeatureSchema{{"Games", "News", "With Spaces"},
                       {"text", "video"},
                       {"html", "mp4"},
                       {"YouTube"}};
}

TEST(SchemaIo, RoundTripPreservesLayout) {
  const FeatureSchema schema = sample_schema();
  std::stringstream stream;
  save_schema(stream, schema);
  const FeatureSchema loaded = load_schema(stream);
  EXPECT_EQ(loaded.dimension(), schema.dimension());
  EXPECT_EQ(loaded.categories(), schema.categories());
  EXPECT_EQ(loaded.super_types(), schema.super_types());
  EXPECT_EQ(loaded.sub_types(), schema.sub_types());
  EXPECT_EQ(loaded.application_types(), schema.application_types());
  // Column assignment identical.
  EXPECT_EQ(loaded.category_column("With Spaces"),
            schema.category_column("With Spaces"));
  EXPECT_EQ(loaded.application_type_column("YouTube"),
            schema.application_type_column("YouTube"));
}

TEST(SchemaIo, RoundTripAtPaperScale) {
  std::vector<std::string> sub_types;
  for (const auto& media : synthetic::media_type_pool(257)) {
    sub_types.emplace_back(log::split_media_type(media).sub_type);
  }
  const FeatureSchema schema{synthetic::category_pool(105),
                             synthetic::media_super_type_pool(), sub_types,
                             synthetic::application_type_pool(464)};
  std::stringstream stream;
  save_schema(stream, schema);
  const FeatureSchema loaded = load_schema(stream);
  EXPECT_EQ(loaded.dimension(), 843u);
}

TEST(SchemaIo, EmptyVocabulariesSurvive) {
  const FeatureSchema schema{{}, {}, {}, {}};
  std::stringstream stream;
  save_schema(stream, schema);
  const FeatureSchema loaded = load_schema(stream);
  EXPECT_EQ(loaded.dimension(), 9u);  // fixed groups only
}

TEST(SchemaIo, RejectsMissingMagic) {
  std::stringstream stream{"categories 0\n"};
  EXPECT_THROW((void)load_schema(stream), std::runtime_error);
}

TEST(SchemaIo, RejectsTruncatedVocabulary) {
  std::stringstream stream{"wtp_schema v1\ncategories 3\nGames\n"};
  EXPECT_THROW((void)load_schema(stream), std::runtime_error);
}

TEST(SchemaIo, RejectsWrongSectionOrder) {
  std::stringstream stream{"wtp_schema v1\nsub_types 0\n"};
  EXPECT_THROW((void)load_schema(stream), std::runtime_error);
}

TEST(SchemaIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/wtp_schema_test.schema";
  save_schema_file(path, sample_schema());
  const FeatureSchema loaded = load_schema_file(path);
  EXPECT_EQ(loaded.dimension(), sample_schema().dimension());
  EXPECT_THROW((void)load_schema_file(path + ".missing"), std::runtime_error);
}

}  // namespace
}  // namespace wtp::features
