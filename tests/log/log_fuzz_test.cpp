// Robustness tests for the log parser: arbitrary mutations of valid log
// lines must either parse to a transaction or throw — never crash, never
// return garbage silently accepted as valid.
#include <gtest/gtest.h>

#include <sstream>

#include "log/log_io.h"
#include "util/csv.h"
#include "util/rng.h"

namespace wtp::log {
namespace {

WebTransaction valid_txn() {
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
  return txn;
}

TEST(LogFuzz, RandomCharacterMutationsNeverCrash) {
  const std::string valid_line = util::csv_format_row(to_fields(valid_txn()));
  util::Rng rng{0xfa22};
  int parsed = 0;
  int rejected = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    std::string line = valid_line;
    const std::size_t mutations = 1 + rng.uniform_index(5);
    for (std::size_t m = 0; m < mutations; ++m) {
      const std::size_t pos = rng.uniform_index(line.size());
      switch (rng.uniform_index(3)) {
        case 0:  // replace with random printable char
          line[pos] = static_cast<char>(32 + rng.uniform_index(95));
          break;
        case 1:  // delete
          line.erase(pos, 1);
          break;
        default:  // duplicate
          line.insert(pos, 1, line[pos]);
          break;
      }
      if (line.empty()) line.assign(1, ',');
    }
    try {
      const auto fields = util::csv_parse_row(line);
      const WebTransaction txn = from_fields(fields);
      // If it parsed, the result must re-serialize to a parseable line.
      const WebTransaction again = from_fields(to_fields(txn));
      ASSERT_EQ(again, txn);
      ++parsed;
    } catch (const std::exception&) {
      ++rejected;  // rejection is the expected outcome for most mutations
    }
  }
  EXPECT_EQ(parsed + rejected, 5000);
  EXPECT_GT(rejected, 2500);  // most mutations break a strict field
}

TEST(LogFuzz, RandomFieldShufflesNeverCrash) {
  util::Rng rng{0xbeef};
  auto fields = to_fields(valid_txn());
  for (int trial = 0; trial < 2000; ++trial) {
    auto shuffled = fields;
    rng.shuffle(shuffled);
    try {
      (void)from_fields(shuffled);
    } catch (const std::exception&) {
      // fine: strict parsers reject most permutations
    }
  }
  SUCCEED();
}

TEST(LogFuzz, TruncatedFieldListsAreRejected) {
  auto fields = to_fields(valid_txn());
  while (fields.size() > 1) {
    fields.pop_back();
    EXPECT_THROW((void)from_fields(fields), std::runtime_error);
  }
}

TEST(LogFuzz, GarbageStreamsYieldErrorsNotGarbageTransactions) {
  util::Rng rng{0xcafe};
  for (int trial = 0; trial < 200; ++trial) {
    std::string blob;
    const std::size_t length = rng.uniform_index(400);
    for (std::size_t i = 0; i < length; ++i) {
      blob.push_back(static_cast<char>(32 + rng.uniform_index(95)));
      if (rng.bernoulli(0.05)) blob.push_back('\n');
    }
    std::stringstream stream{blob};
    LogReader reader{stream};
    WebTransaction txn;
    try {
      while (reader.next(txn)) {
        // Anything accepted must round-trip.
        ASSERT_EQ(from_fields(to_fields(txn)), txn);
      }
    } catch (const std::exception&) {
      // expected for malformed rows
    }
  }
  SUCCEED();
}

TEST(LogFuzz, ExtremeFieldValuesSurviveRoundTrip) {
  WebTransaction txn = valid_txn();
  txn.url = std::string(3000, 'u');
  txn.category = "comma, \"quote\", and\nnewline";
  txn.application_type = "";
  txn.user_id = " leading and trailing ";
  std::stringstream stream;
  write_log(stream, {txn});
  const auto loaded = read_log(stream);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0], txn);
}

}  // namespace
}  // namespace wtp::log
