#include "log/log_io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "util/time.h"

namespace wtp::log {
namespace {

WebTransaction example_txn() {
  // Modeled on the paper's example log line.
  WebTransaction txn;
  txn.timestamp = util::parse_timestamp("2015-05-29 05:05:04");
  txn.url = "www.inlinegames.com";
  txn.scheme = UriScheme::kHttp;
  txn.action = HttpAction::kGet;
  txn.user_id = "user_9";
  txn.device_id = "device_3";
  txn.category = "Games";
  txn.media_type = "text/html";
  txn.application_type = "Rhapsody";
  txn.reputation = Reputation::kMinimalRisk;
  txn.private_destination = false;
  return txn;
}

TEST(LogFields, RoundTrip) {
  const WebTransaction txn = example_txn();
  EXPECT_EQ(from_fields(to_fields(txn)), txn);
}

TEST(LogFields, FieldOrderMatchesHeader) {
  const auto header = log_header();
  const auto fields = to_fields(example_txn());
  ASSERT_EQ(header.size(), fields.size());
  EXPECT_EQ(header[0], "timestamp");
  EXPECT_EQ(fields[0], "2015-05-29 05:05:04");
  EXPECT_EQ(header[4], "user_id");
  EXPECT_EQ(fields[4], "user_9");
  EXPECT_EQ(header[10], "private_flag");
  EXPECT_EQ(fields[10], "0");
}

TEST(LogFields, RejectsWrongFieldCount) {
  EXPECT_THROW((void)from_fields({"a", "b"}), std::runtime_error);
}

TEST(LogFields, RejectsBadPrivateFlag) {
  auto fields = to_fields(example_txn());
  fields[10] = "yes";
  EXPECT_THROW((void)from_fields(fields), std::runtime_error);
}

TEST(LogFields, RejectsBadTimestamp) {
  auto fields = to_fields(example_txn());
  fields[0] = "garbage";
  EXPECT_THROW((void)from_fields(fields), std::runtime_error);
}

TEST(LogStream, WriteReadRoundTrip) {
  std::vector<WebTransaction> txns;
  for (int i = 0; i < 5; ++i) {
    WebTransaction txn = example_txn();
    txn.timestamp += i * 10;
    txn.user_id = "user_" + std::to_string(i);
    txn.private_destination = i % 2 == 0;
    txn.reputation = i % 2 ? Reputation::kHighRisk : Reputation::kUnverified;
    txns.push_back(txn);
  }
  std::stringstream stream;
  write_log(stream, txns);
  EXPECT_EQ(read_log(stream), txns);
}

TEST(LogStream, ReaderSkipsHeader) {
  std::stringstream stream;
  write_log(stream, {example_txn()});
  LogReader reader{stream};
  WebTransaction txn;
  ASSERT_TRUE(reader.next(txn));
  EXPECT_EQ(txn, example_txn());
  EXPECT_FALSE(reader.next(txn));
}

TEST(LogStream, ReaderHandlesHeaderlessInput) {
  std::stringstream with_header;
  write_log(with_header, {example_txn()});
  // Strip the header line.
  std::string all = with_header.str();
  std::stringstream headerless{all.substr(all.find('\n') + 1)};
  const auto txns = read_log(headerless);
  ASSERT_EQ(txns.size(), 1u);
  EXPECT_EQ(txns[0], example_txn());
}

// read_log interns per read: rows holding one value share its buffer, and
// an empty field holds none.  LogReader and from_fields make fresh handles.
TEST(LogStream, ReadLogSharesOneBufferPerValue) {
  std::vector<WebTransaction> txns;
  for (int i = 0; i < 6; ++i) {
    WebTransaction txn = example_txn();
    txn.timestamp += i;
    txn.user_id = "user_" + std::to_string(i % 2);
    txn.application_type = i % 3 == 0 ? "" : "Rhapsody";
    txns.push_back(txn);
  }
  std::stringstream stream;
  write_log(stream, txns);
  const auto rows = read_log(stream);
  ASSERT_EQ(rows, txns);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(rows[i].url.shares_with(rows[0].url));
    EXPECT_TRUE(rows[i].device_id.shares_with(rows[0].device_id));
    EXPECT_TRUE(rows[i].user_id.shares_with(rows[i % 2].user_id));
    EXPECT_TRUE(rows[i].application_type.shares_with(rows[i % 3 == 0 ? 0 : 1].application_type));
  }
  EXPECT_FALSE(rows[0].user_id.shares_with(rows[1].user_id));
  EXPECT_TRUE(rows[0].application_type.empty());

  // A second read has a table of its own.
  std::stringstream again;
  write_log(again, txns);
  EXPECT_FALSE(read_log(again)[0].url.shares_with(rows[0].url));

  // The streaming reader keeps no table: each row it returns owns its values.
  std::stringstream streamed;
  write_log(streamed, txns);
  LogReader reader{streamed};
  WebTransaction first;
  WebTransaction second;
  ASSERT_TRUE(reader.next(first));
  ASSERT_TRUE(reader.next(second));
  EXPECT_EQ(first.url, second.url);
  EXPECT_FALSE(first.url.shares_with(second.url));
  EXPECT_FALSE(first.device_id.shares_with(second.device_id));

  const auto fields = to_fields(txns[0]);
  EXPECT_FALSE(from_fields(fields).url.shares_with(from_fields(fields).url));
}

TEST(LogStream, CategoryWithCommaSurvives) {
  WebTransaction txn = example_txn();
  txn.category = "News, Politics";
  std::stringstream stream;
  write_log(stream, {txn});
  const auto txns = read_log(stream);
  ASSERT_EQ(txns.size(), 1u);
  EXPECT_EQ(txns[0].category, "News, Politics");
}

TEST(LogFile, FileRoundTripAndMissingFileError) {
  const std::string path = ::testing::TempDir() + "/wtp_log_io_test.csv";
  const std::vector<WebTransaction> txns{example_txn()};
  write_log_file(path, txns);
  EXPECT_EQ(read_log_file(path), txns);
  EXPECT_THROW((void)read_log_file(path + ".does_not_exist"), std::runtime_error);
}

}  // namespace
}  // namespace wtp::log
