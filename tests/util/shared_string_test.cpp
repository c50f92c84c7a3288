#include "util/shared_string.h"

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace wtp::util {
namespace {

TEST(SharedString, EmptyIsNullAndEqualsEveryEmptyString) {
  const SharedString none;
  const SharedString from_literal{""};
  const SharedString from_string{std::string{}};
  const SharedString from_view{std::string_view{}};
  for (const SharedString* value : {&none, &from_literal, &from_string, &from_view}) {
    EXPECT_TRUE(value->empty());
    EXPECT_EQ(value->size(), 0u);
    EXPECT_STREQ(value->c_str(), "");
    EXPECT_TRUE(value->shares_with(none));  // no block behind any of them
    EXPECT_EQ(*value, "");
    EXPECT_EQ(*value, std::string{});
    EXPECT_EQ(*value, std::string_view{});
    EXPECT_EQ(*value, none);
    EXPECT_EQ(value->view(), std::string_view{});
  }
  EXPECT_EQ(sizeof(SharedString), sizeof(void*));
}

TEST(SharedString, ComparesWithEveryStringType) {
  const SharedString b{"beta"};
  const std::string alpha = "alpha";
  const std::string_view gamma = "gamma";

  EXPECT_EQ(b, "beta");
  EXPECT_EQ("beta", b);
  EXPECT_EQ(b, std::string{"beta"});
  EXPECT_EQ(std::string{"beta"}, b);
  EXPECT_EQ(b, std::string_view{"beta"});
  EXPECT_EQ(std::string_view{"beta"}, b);
  EXPECT_EQ(b, SharedString{"beta"});
  EXPECT_NE(b, "bet");
  EXPECT_NE(b, "betas");
  EXPECT_NE(b, SharedString{});

  EXPECT_LT(alpha, b);
  EXPECT_LT(b, gamma);
  EXPECT_GT(b, alpha);
  EXPECT_LT(b, "c");
  EXPECT_LT("a", b);
  EXPECT_LT(SharedString{}, b);
  EXPECT_LT(SharedString{"bet"}, b);
  EXPECT_FALSE(b < SharedString{"beta"});
  EXPECT_EQ(b <=> std::string_view{"beta"}, std::strong_ordering::equal);
}

TEST(SharedString, HashEqualsStdStringHash) {
  for (const std::string& text : std::vector<std::string>{
           "", "device_3", "www.site-17.example.com", std::string(300, 'x')}) {
    const SharedString value{text};
    EXPECT_EQ(std::hash<SharedString>{}(value), std::hash<std::string>{}(text));
    EXPECT_EQ(TransparentStringHash{}(value), std::hash<std::string>{}(text));
  }
}

TEST(SharedString, TransparentMapFindsBySharedStringAndView) {
  std::unordered_map<std::string, int, TransparentStringHash, std::equal_to<>> map;
  map.emplace("device_1", 1);
  map.emplace("device_2", 2);
  const SharedString key{"device_2"};
  ASSERT_NE(map.find(key), map.end());
  EXPECT_EQ(map.find(key)->second, 2);
  EXPECT_EQ(map.find(std::string_view{"device_1"})->second, 1);
  EXPECT_EQ(map.find(SharedString{"device_3"}), map.end());
}

TEST(SharedString, ConvertsToViewAndString) {
  const SharedString value{"text/html"};
  const std::string_view view = value;
  const std::string copy = value;
  EXPECT_EQ(view, "text/html");
  EXPECT_EQ(copy, "text/html");
  EXPECT_EQ(view.data(), value.c_str());
  EXPECT_EQ(value.c_str()[value.size()], '\0');
  std::ostringstream out;
  out << value;
  EXPECT_EQ(out.str(), "text/html");
}

TEST(SharedString, KeepsEmbeddedNulBytes) {
  const std::string text{"a\0b", 3};
  const SharedString value{text};
  EXPECT_EQ(value.size(), 3u);
  EXPECT_EQ(value, text);
  EXPECT_NE(value, "a");
}

TEST(SharedString, CopySharesTheBufferAndMoveStealsIt) {
  const SharedString original{"user_9"};
  SharedString copy = original;
  EXPECT_EQ(copy.c_str(), original.c_str());
  EXPECT_TRUE(copy.shares_with(original));

  SharedString moved = std::move(copy);
  EXPECT_EQ(moved.c_str(), original.c_str());
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(copy, "");        // NOLINT(bugprone-use-after-move)

  SharedString assigned{"other"};
  assigned = std::move(moved);
  EXPECT_EQ(assigned.c_str(), original.c_str());
  EXPECT_EQ(moved, "");  // NOLINT(bugprone-use-after-move)
  assigned = original;
  EXPECT_EQ(assigned.c_str(), original.c_str());
  assigned = "fresh";
  EXPECT_FALSE(assigned.shares_with(original));
  EXPECT_EQ(original, "user_9");

  // Equal text built twice is two buffers: nothing is interned globally.
  EXPECT_NE(SharedString{"user_9"}.c_str(), original.c_str());
  EXPECT_EQ(SharedString{"user_9"}, original);
}

TEST(SharedString, SelfAssignmentKeepsTheValue) {
  SharedString value{"category"};
  const char* buffer = value.c_str();
  SharedString& alias = value;
  value = alias;
  EXPECT_EQ(value, "category");
  EXPECT_EQ(value.c_str(), buffer);
  value = std::move(alias);
  EXPECT_EQ(value, "category");
  EXPECT_EQ(value.c_str(), buffer);
}

// Copies and releases of one buffer race on four threads; the last release,
// wherever it lands, frees the block once (the sanitized build checks the
// free and the absence of a leak).
TEST(SharedString, CopiesAndReleasesRaceOnFourThreads) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 20000;
  SharedString shared{"www.shared-by-every-thread.example.com"};
  const std::string expected = shared;
  std::vector<SharedString> seeds(kThreads, shared);
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SharedString mine = std::move(seeds[static_cast<std::size_t>(t)]);
      std::vector<SharedString> held;
      for (int round = 0; round < kRounds; ++round) {
        held.push_back(mine);
        if (held.back() != expected) ++mismatches[static_cast<std::size_t>(t)];
        if (held.size() == 64) held.clear();
      }
    });
  }
  shared = SharedString{};  // the main thread lets go while the others copy
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0);
}

}  // namespace
}  // namespace wtp::util
