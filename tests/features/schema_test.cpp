#include "features/schema.h"

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "synthetic/pools.h"

namespace wtp::features {
namespace {

FeatureSchema tiny_schema() {
  return FeatureSchema{{"Games", "News"},          // categories
                       {"text", "video"},          // super types
                       {"html", "mp4", "plain"},   // sub types
                       {"YouTube"}};               // application types
}

TEST(FeatureSchema, DimensionSumsAllGroups) {
  const FeatureSchema schema = tiny_schema();
  // 4 actions + 2 schemes + 1 private + 1 risk + 1 verified + 2 + 2 + 3 + 1.
  EXPECT_EQ(schema.dimension(), 17u);
}

TEST(FeatureSchema, PaperScaleDimensionIs843) {
  // Tab. I: 4 + 2 + 1 + 1 + 1 + 105 + 8 + 257 + 464 = 843 columns.
  std::vector<std::string> sub_types;
  for (const auto& media : synthetic::media_type_pool(257)) {
    sub_types.emplace_back(log::split_media_type(media).sub_type);
  }
  const FeatureSchema schema{synthetic::category_pool(105),
                             synthetic::media_super_type_pool(), sub_types,
                             synthetic::application_type_pool(464)};
  EXPECT_EQ(schema.dimension(), 843u);
  EXPECT_EQ(schema.group_size(FeatureGroup::kCategory), 105u);
  EXPECT_EQ(schema.group_size(FeatureGroup::kSuperType), 8u);
  EXPECT_EQ(schema.group_size(FeatureGroup::kSubType), 257u);
  EXPECT_EQ(schema.group_size(FeatureGroup::kApplicationType), 464u);
}

TEST(FeatureSchema, GroupsAreContiguousAndOrdered) {
  const FeatureSchema schema = tiny_schema();
  std::size_t expected_offset = 0;
  for (int g = 0; g < kFeatureGroupCount; ++g) {
    const auto group = static_cast<FeatureGroup>(g);
    EXPECT_EQ(schema.group_offset(group), expected_offset);
    expected_offset += schema.group_size(group);
  }
  EXPECT_EQ(expected_offset, schema.dimension());
}

TEST(FeatureSchema, FixedGroupSizesMatchTabI) {
  const FeatureSchema schema = tiny_schema();
  EXPECT_EQ(schema.group_size(FeatureGroup::kHttpAction), 4u);
  EXPECT_EQ(schema.group_size(FeatureGroup::kUriScheme), 2u);
  EXPECT_EQ(schema.group_size(FeatureGroup::kPrivateFlag), 1u);
  EXPECT_EQ(schema.group_size(FeatureGroup::kReputationRisk), 1u);
  EXPECT_EQ(schema.group_size(FeatureGroup::kReputationVerified), 1u);
}

TEST(FeatureSchema, VocabularyLookupsResolveAndReject) {
  const FeatureSchema schema = tiny_schema();
  ASSERT_TRUE(schema.category_column("Games").has_value());
  ASSERT_TRUE(schema.sub_type_column("mp4").has_value());
  ASSERT_TRUE(schema.application_type_column("YouTube").has_value());
  EXPECT_FALSE(schema.category_column("Sports").has_value());
  EXPECT_FALSE(schema.super_type_column("audio").has_value());
  EXPECT_FALSE(schema.application_type_column("Spotify").has_value());
}

TEST(FeatureSchema, ColumnsAreUniqueAcrossAllLookups) {
  const FeatureSchema schema = tiny_schema();
  std::set<std::size_t> columns;
  for (const log::HttpAction a :
       {log::HttpAction::kGet, log::HttpAction::kPost, log::HttpAction::kConnect,
        log::HttpAction::kHead}) {
    columns.insert(schema.http_action_column(a));
  }
  columns.insert(schema.uri_scheme_column(log::UriScheme::kHttp));
  columns.insert(schema.uri_scheme_column(log::UriScheme::kHttps));
  columns.insert(schema.private_flag_column());
  columns.insert(schema.reputation_risk_column());
  columns.insert(schema.reputation_verified_column());
  for (const char* c : {"Games", "News"}) columns.insert(*schema.category_column(c));
  for (const char* s : {"text", "video"}) columns.insert(*schema.super_type_column(s));
  for (const char* s : {"html", "mp4", "plain"}) columns.insert(*schema.sub_type_column(s));
  columns.insert(*schema.application_type_column("YouTube"));
  EXPECT_EQ(columns.size(), schema.dimension());
}

TEST(FeatureSchema, LayoutIsIndependentOfVocabularyOrder) {
  const FeatureSchema a{{"B", "A"}, {"y", "x"}, {"q", "p"}, {"Z", "Y"}};
  const FeatureSchema b{{"A", "B"}, {"x", "y"}, {"p", "q"}, {"Y", "Z"}};
  EXPECT_EQ(a.category_column("A"), b.category_column("A"));
  EXPECT_EQ(a.application_type_column("Z"), b.application_type_column("Z"));
}

TEST(FeatureSchema, DuplicateVocabularyValuesCollapse) {
  const FeatureSchema schema{{"A", "A", "A"}, {}, {}, {}};
  EXPECT_EQ(schema.group_size(FeatureGroup::kCategory), 1u);
}

TEST(FeatureSchema, NumericColumnsAreExactlyTheThreeAveragedOnes) {
  const FeatureSchema schema = tiny_schema();
  std::size_t numeric = 0;
  for (std::size_t c = 0; c < schema.dimension(); ++c) {
    if (schema.is_numeric_column(c)) ++numeric;
  }
  EXPECT_EQ(numeric, 3u);
  EXPECT_TRUE(schema.is_numeric_column(schema.private_flag_column()));
  EXPECT_TRUE(schema.is_numeric_column(schema.reputation_risk_column()));
  EXPECT_TRUE(schema.is_numeric_column(schema.reputation_verified_column()));
  EXPECT_FALSE(
      schema.is_numeric_column(schema.http_action_column(log::HttpAction::kGet)));
}

TEST(FeatureSchema, ColumnNamesAreDescriptive) {
  const FeatureSchema schema = tiny_schema();
  EXPECT_EQ(schema.column_name(schema.http_action_column(log::HttpAction::kConnect)),
            "action:CONNECT");
  EXPECT_EQ(schema.column_name(*schema.category_column("Games")), "category:Games");
  EXPECT_EQ(schema.column_name(schema.reputation_risk_column()), "reputation_risk");
  EXPECT_THROW((void)schema.column_name(schema.dimension()), std::out_of_range);
}

TEST(FeatureSchema, ColumnGroupInverse) {
  const FeatureSchema schema = tiny_schema();
  for (std::size_t c = 0; c < schema.dimension(); ++c) {
    const FeatureGroup group = schema.column_group(c);
    EXPECT_GE(c, schema.group_offset(group));
    EXPECT_LT(c, schema.group_offset(group) + schema.group_size(group));
  }
}

TEST(FeatureSchema, FromTransactionsCollectsObservedVocabulary) {
  std::vector<log::WebTransaction> txns(3);
  txns[0].category = "Games";
  txns[0].media_type = "text/html";
  txns[0].application_type = "Steam";
  txns[1].category = "News";
  txns[1].media_type = "video/mp4";
  txns[1].application_type = "YouTube";
  txns[2].category = "Games";  // duplicate
  txns[2].media_type = "text/css";
  txns[2].application_type = "Steam";
  const FeatureSchema schema = FeatureSchema::from_transactions(txns);
  EXPECT_EQ(schema.group_size(FeatureGroup::kCategory), 2u);
  EXPECT_EQ(schema.group_size(FeatureGroup::kSuperType), 2u);   // text, video
  EXPECT_EQ(schema.group_size(FeatureGroup::kSubType), 3u);     // html, mp4, css
  EXPECT_EQ(schema.group_size(FeatureGroup::kApplicationType), 2u);
  EXPECT_TRUE(schema.category_column("Games").has_value());
}

/// The vocabularies from_transactions must collect, built the plain way.
FeatureSchema reference_schema(const std::vector<log::WebTransaction>& txns) {
  std::set<std::string> categories;
  std::set<std::string> super_types;
  std::set<std::string> sub_types;
  std::set<std::string> application_types;
  for (const auto& txn : txns) {
    categories.insert(txn.category);
    const std::string media_type = txn.media_type;
    const std::size_t slash = media_type.find('/');
    super_types.insert(media_type.substr(0, slash));
    if (slash != std::string::npos && slash + 1 < media_type.size()) {
      sub_types.insert(media_type.substr(slash + 1));
    }
    application_types.insert(txn.application_type);
  }
  return FeatureSchema{{categories.begin(), categories.end()},
                       {super_types.begin(), super_types.end()},
                       {sub_types.begin(), sub_types.end()},
                       {application_types.begin(), application_types.end()}};
}

TEST(FeatureSchema, FromTransactionsMatchesSetReferenceOnRandomLogs) {
  // Media types without a '/', with an empty sub-type and with an empty
  // super-type ride along with ordinary ones.
  const std::vector<std::string> media{"-",          "video/", "/x",
                                       "text/html",  "text/css", "video/mp4",
                                       "application/json", "", "image/png"};
  const std::vector<std::string> words{"", "Games", "News", "a", "ab", "b",
                                       "A longer value past any short-string buffer"};
  std::mt19937 rng{11};
  const auto any = [&rng](const std::vector<std::string>& pool) {
    return pool[std::uniform_int_distribution<std::size_t>{0, pool.size() - 1}(rng)];
  };
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<log::WebTransaction> txns(
        std::uniform_int_distribution<std::size_t>{0, 60}(rng));
    for (auto& txn : txns) {
      txn.category = any(words);
      txn.media_type = any(media);
      txn.application_type = any(words);
    }
    const FeatureSchema schema = FeatureSchema::from_transactions(txns);
    const FeatureSchema expected = reference_schema(txns);
    ASSERT_EQ(schema.categories(), expected.categories()) << "trial " << trial;
    ASSERT_EQ(schema.super_types(), expected.super_types()) << "trial " << trial;
    ASSERT_EQ(schema.sub_types(), expected.sub_types()) << "trial " << trial;
    ASSERT_EQ(schema.application_types(), expected.application_types())
        << "trial " << trial;
    ASSERT_EQ(schema.dimension(), expected.dimension()) << "trial " << trial;
  }
}

TEST(FeatureSchema, LookupsAcceptNonNullTerminatedSubstrings) {
  const FeatureSchema schema = tiny_schema();
  // Every lookup key below is a view into a longer buffer, with more
  // characters right after it.
  const std::string_view buffer{"video/mp4;codecs=avc1 GamesX YouTubes"};
  const std::string_view video = buffer.substr(0, 5);
  const std::string_view mp4 = buffer.substr(6, 3);
  const std::string_view games = buffer.substr(22, 5);
  const std::string_view youtube = buffer.substr(29, 7);
  EXPECT_EQ(schema.super_type_column(video), schema.super_type_column("video"));
  EXPECT_EQ(schema.sub_type_column(mp4), schema.sub_type_column("mp4"));
  EXPECT_EQ(schema.category_column(games), schema.category_column("Games"));
  EXPECT_EQ(schema.application_type_column(youtube),
            schema.application_type_column("YouTube"));
  ASSERT_TRUE(schema.sub_type_column(mp4).has_value());
  // One character more is a different value.
  EXPECT_FALSE(schema.category_column(buffer.substr(22, 6)).has_value());
  EXPECT_FALSE(schema.application_type_column(buffer.substr(29, 8)).has_value());
}

TEST(FeatureSchema, CompositionMatchesTabIRowOrder) {
  const FeatureSchema schema = tiny_schema();
  const auto rows = schema.composition();
  ASSERT_EQ(rows.size(), 9u);
  EXPECT_EQ(rows[0].first, "http action");
  EXPECT_EQ(rows[0].second, 4u);
  EXPECT_EQ(rows[8].first, "application type");
  std::size_t total = 0;
  for (const auto& [name, count] : rows) total += count;
  EXPECT_EQ(total, schema.dimension());
}

}  // namespace
}  // namespace wtp::features
