#include "util/pages.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace wtp::util {
namespace {

TEST(ReleasePages, ZeroesOnlyTheWholePagesInsideTheRange) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::unique_ptr<char, decltype(&std::free)> buffer{
      static_cast<char*>(std::aligned_alloc(page, 4 * page)), &std::free};
  ASSERT_NE(buffer, nullptr);
  char* const bytes = buffer.get();
  std::memset(bytes, 'a', 4 * page);
  // The range starts inside page 0 and ends inside page 3: only pages 1
  // and 2 lie wholly inside it.
  release_pages(bytes + 100, bytes + 3 * page + 50);
  for (std::size_t i = 0; i < 4 * page; ++i) {
    const bool released = i >= page && i < 3 * page;
    ASSERT_EQ(bytes[i], released ? '\0' : 'a') << "byte " << i;
  }
  // A range inside one page releases nothing.
  std::memset(bytes, 'b', page);
  release_pages(bytes + 1, bytes + page - 1);
  EXPECT_EQ(bytes[page / 2], 'b');
}

TEST(ReleaseSpareCapacity, KeepsElementsAndCapacity) {
  std::vector<std::string> values;
  values.reserve(100000);
  for (int i = 0; i < 100000; ++i) values.push_back("value " + std::to_string(i));
  values.erase(values.begin() + 1000, values.end());
  const auto* data = values.data();
  const auto capacity = values.capacity();
  release_spare_capacity(values);
  ASSERT_EQ(values.size(), 1000u);
  EXPECT_EQ(values.data(), data);
  EXPECT_EQ(values.capacity(), capacity);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(values[i], "value " + std::to_string(i));
  // The released tail takes new elements like any spare capacity.
  for (int i = 1000; i < 50000; ++i) values.push_back("value " + std::to_string(i));
  EXPECT_EQ(values.data(), data);
  EXPECT_EQ(values.back(), "value 49999");
}

}  // namespace
}  // namespace wtp::util
