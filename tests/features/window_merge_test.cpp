// The window merge against the sort-based oracle (window_reference.h), and
// the oracle's own accumulator.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "features/window.h"
#include "features/window_reference.h"
#include "util/rng.h"

namespace wtp::features {
namespace {

using testing::SparseAccumulator;
using util::SparseVector;

TEST(SparseAccumulator, AddSumsValues) {
  SparseAccumulator acc;
  acc.add(3, 0.25);
  acc.add(3, 0.25);
  acc.add(1, 1.0);
  const SparseVector v = acc.build();
  EXPECT_DOUBLE_EQ(v.at(3), 0.5);
  EXPECT_DOUBLE_EQ(v.at(1), 1.0);
}

TEST(SparseAccumulator, MaxKeepsLargest) {
  SparseAccumulator acc;
  acc.max(2, 1.0);
  acc.max(2, 0.5);
  acc.max(2, 1.0);
  const SparseVector v = acc.build();
  EXPECT_DOUBLE_EQ(v.at(2), 1.0);
  EXPECT_EQ(v.nnz(), 1u);
}

TEST(SparseAccumulator, BuildResetsState) {
  SparseAccumulator acc;
  acc.add(0, 1.0);
  (void)acc.build();
  const SparseVector second = acc.build();
  EXPECT_TRUE(second.empty());
}

TEST(SparseAccumulator, MixedAddAndMax) {
  SparseAccumulator acc;
  acc.max(0, 1.0);   // binary column
  acc.max(0, 1.0);
  acc.add(5, 0.1);   // numeric column
  acc.add(5, 0.2);
  const SparseVector v = acc.build();
  EXPECT_DOUBLE_EQ(v.at(0), 1.0);
  EXPECT_NEAR(v.at(5), 0.3, 1e-12);
}

std::vector<std::string> names(const char* prefix, int count) {
  std::vector<std::string> out;
  for (int i = 0; i < count; ++i) out.push_back(prefix + std::to_string(i));
  return out;
}

TEST(WindowMerge, WideWindowsMatchSortBasedMergeBitwise) {
  // Dense bursts over wide vocabularies: most windows touch more than 16
  // columns, so SparseVector::normalize's std::sort takes its introsort
  // path rather than insertion sort, and the numeric columns repeat across
  // transactions, so the sort order decides the order of their sums.
  const FeatureSchema schema{names("cat", 40), names("sup", 8), names("sub", 30),
                             names("app", 40)};
  util::Rng rng{25};
  std::vector<log::WebTransaction> txns;
  util::UnixSeconds now = 1000;
  for (int i = 0; i < 3000; ++i) {
    now += rng.bernoulli(0.02) ? 1800 : static_cast<util::UnixSeconds>(rng.uniform_index(4));
    log::WebTransaction txn;
    txn.timestamp = now;
    txn.category = "cat" + std::to_string(rng.uniform_index(44));  // some OOV
    txn.media_type = "sup" + std::to_string(rng.uniform_index(8)) + "/sub" +
                     std::to_string(rng.uniform_index(30));
    txn.application_type = "app" + std::to_string(rng.uniform_index(40));
    txn.action = static_cast<log::HttpAction>(rng.uniform_index(4));
    txn.scheme = rng.bernoulli(0.5) ? log::UriScheme::kHttps : log::UriScheme::kHttp;
    txn.reputation = static_cast<log::Reputation>(rng.uniform_index(4));
    txn.private_destination = rng.bernoulli(0.3);
    txns.push_back(txn);
  }
  const WindowConfig config{60, 30};
  const auto got = WindowAggregator{schema, config}.aggregate(txns);
  const auto want = testing::reference_aggregate(schema, config, txns);
  ASSERT_EQ(got.size(), want.size());
  std::size_t wide = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].start, want[i].start) << "window " << i;
    ASSERT_EQ(got[i].transaction_count, want[i].transaction_count) << "window " << i;
    ASSERT_TRUE(testing::bitwise_equal(got[i].features, want[i].features))
        << "window " << i;
    if (want[i].features.nnz() > 16) ++wide;
  }
  EXPECT_GT(wide, want.size() / 2);
}

TEST(WindowMerge, ColumnPastTheDimensionThrows) {
  const FeatureSchema schema{{"a"}, {"b"}, {"c"}, {"d"}};
  // A wider schema first, so this thread's scratch outgrows `schema`.
  const FeatureSchema wide{names("cat", 40), {}, {}, {}};
  EncodedTransaction inside;
  inside.push_back(wide.dimension() - 1, 1.0);
  EXPECT_EQ(merge_window(std::vector{inside}, wide).nnz(), 1u);
  EncodedTransaction past;
  past.push_back(schema.dimension(), 1.0);
  EXPECT_THROW((void)merge_window(std::vector{past}, schema), std::out_of_range);
}

}  // namespace
}  // namespace wtp::features
