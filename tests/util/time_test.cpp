#include "util/time.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace wtp::util {
namespace {

TEST(CivilTimeConversion, EpochIsKnown) {
  const CivilTime epoch{1970, 1, 1, 0, 0, 0};
  EXPECT_EQ(to_unix(epoch), 0);
  EXPECT_EQ(to_civil(0), epoch);
}

TEST(CivilTimeConversion, PaperExampleTimestamp) {
  // The paper's example log line: 2015-05-29 05:05:04 (a Friday).
  const UnixSeconds ts = parse_timestamp("2015-05-29 05:05:04");
  EXPECT_EQ(ts, 1432875904);
  EXPECT_EQ(format_timestamp(ts), "2015-05-29 05:05:04");
  EXPECT_EQ(day_of_week(ts), 4);  // Friday (Monday = 0)
  EXPECT_EQ(to_civil(ts).hour, 5);
}

TEST(CivilTimeConversion, LeapDayRoundTrip) {
  const CivilTime leap{2016, 2, 29, 23, 59, 59};
  EXPECT_EQ(to_civil(to_unix(leap)), leap);
}

TEST(CivilTimeConversion, RandomRoundTrip) {
  Rng rng{99};
  for (int i = 0; i < 2000; ++i) {
    const auto ts = static_cast<UnixSeconds>(rng.uniform_index(4102444800ULL));
    const CivilTime civil = to_civil(ts);
    ASSERT_EQ(to_unix(civil), ts);
    ASSERT_GE(civil.month, 1);
    ASSERT_LE(civil.month, 12);
    ASSERT_GE(civil.day, 1);
    ASSERT_LE(civil.day, 31);
  }
}

TEST(CivilTimeConversion, FormatParseRoundTrip) {
  Rng rng{101};
  for (int i = 0; i < 500; ++i) {
    const auto ts = static_cast<UnixSeconds>(rng.uniform_index(4102444800ULL));
    ASSERT_EQ(parse_timestamp(format_timestamp(ts)), ts);
  }
}

TEST(DayOfWeek, KnownDays) {
  // 2015-01-05 was a Monday (the default trace start).
  EXPECT_EQ(day_of_week(parse_timestamp("2015-01-05 00:00:00")), 0);
  EXPECT_EQ(day_of_week(parse_timestamp("2015-01-10 12:00:00")), 5);  // Saturday
  EXPECT_EQ(day_of_week(parse_timestamp("2015-01-11 12:00:00")), 6);  // Sunday
}

TEST(FractionalHour, HalfPast) {
  EXPECT_NEAR(fractional_hour(parse_timestamp("2015-01-05 13:30:00")), 13.5, 1e-9);
  EXPECT_NEAR(fractional_hour(parse_timestamp("2015-01-05 00:00:00")), 0.0, 1e-9);
}

TEST(ParseTimestamp, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_timestamp("not a date"), std::runtime_error);
  EXPECT_THROW((void)parse_timestamp("2015-13-01 00:00:00"), std::runtime_error);
  EXPECT_THROW((void)parse_timestamp("2015-01-32 00:00:00"), std::runtime_error);
  EXPECT_THROW((void)parse_timestamp("2015-01-01 24:00:00"), std::runtime_error);
  EXPECT_THROW((void)parse_timestamp(""), std::runtime_error);
}

TEST(Constants, SecondRelations) {
  EXPECT_EQ(kSecondsPerDay, 24 * kSecondsPerHour);
  EXPECT_EQ(kSecondsPerWeek, 7 * kSecondsPerDay);
}

}  // namespace
}  // namespace wtp::util
