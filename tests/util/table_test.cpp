#include "util/table.h"

#include <gtest/gtest.h>

namespace wtp::util {
namespace {

TEST(TextTable, RendersHeaderRuleAndRows) {
  TextTable table;
  table.set_header({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  const std::string out = table.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("value"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  // Columns aligned: "value" and "1" start at the same offset.
  const std::size_t header_col = out.find("value");
  const std::size_t line_start = out.find("alpha");
  const std::size_t row_col = out.find('1', line_start);
  const std::size_t header_line_start = out.find("name");
  EXPECT_EQ(header_col - header_line_start, row_col - line_start);
}

TEST(TextTable, TitleIsFirstLine) {
  TextTable table;
  table.add_row({"x"});
  const std::string out = table.render("My Title");
  EXPECT_EQ(out.rfind("My Title\n", 0), 0u);
}

TEST(TextTable, RaggedRowsArePadded) {
  TextTable table;
  table.set_header({"a", "b", "c"});
  table.add_row({"1"});
  table.add_row({"1", "2", "3"});
  const std::string out = table.render();
  EXPECT_NE(out.find('3'), std::string::npos);
}

TEST(TextTable, RowCount) {
  TextTable table;
  EXPECT_EQ(table.row_count(), 0u);
  table.add_row({"x"});
  table.add_row({"y"});
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TextTable, NoTrailingSpaces) {
  TextTable table;
  table.set_header({"col", "c"});
  table.add_row({"a", "b"});
  const std::string out = table.render();
  std::size_t pos = 0;
  while ((pos = out.find('\n', pos)) != std::string::npos) {
    if (pos > 0) {
      EXPECT_NE(out[pos - 1], ' ');
    }
    ++pos;
  }
}

}  // namespace
}  // namespace wtp::util
