#include "util/time.h"

#include <cstdio>
#include <stdexcept>

namespace wtp::util {

std::int64_t days_from_civil(int year, int month, int day) noexcept {
  // Howard Hinnant, "chrono-Compatible Low-Level Date Algorithms".
  year -= month <= 2;
  const std::int64_t era = (year >= 0 ? year : year - 399) / 400;
  const auto yoe = static_cast<unsigned>(year - era * 400);             // [0, 399]
  const unsigned doy = (153u * static_cast<unsigned>(month + (month > 2 ? -3 : 9)) + 2) / 5 +
                       static_cast<unsigned>(day) - 1;                  // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;           // [0, 146096]
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

namespace {

/// Inverse of days_from_civil.
void civil_from_days(std::int64_t z, int& year, int& month, int& day) noexcept {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const auto doe = static_cast<unsigned>(z - era * 146097);                      // [0, 146096]
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;    // [0, 399]
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);                  // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                                       // [0, 11]
  day = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  month = static_cast<int>(mp < 10 ? mp + 3 : mp - 9);
  year = static_cast<int>(y + (month <= 2));
}

}  // namespace

UnixSeconds to_unix(const CivilTime& civil) noexcept {
  return days_from_civil(civil.year, civil.month, civil.day) * kSecondsPerDay +
         civil.hour * kSecondsPerHour + civil.minute * kSecondsPerMinute +
         civil.second;
}

CivilTime to_civil(UnixSeconds ts) noexcept {
  std::int64_t days = ts / kSecondsPerDay;
  std::int64_t rem = ts % kSecondsPerDay;
  if (rem < 0) {
    rem += kSecondsPerDay;
    --days;
  }
  CivilTime civil;
  civil_from_days(days, civil.year, civil.month, civil.day);
  civil.hour = static_cast<int>(rem / kSecondsPerHour);
  civil.minute = static_cast<int>((rem % kSecondsPerHour) / kSecondsPerMinute);
  civil.second = static_cast<int>(rem % kSecondsPerMinute);
  return civil;
}

int day_of_week(UnixSeconds ts) noexcept {
  std::int64_t days = ts / kSecondsPerDay;
  if (ts % kSecondsPerDay < 0) --days;
  // 1970-01-01 was a Thursday (index 3 with Monday = 0).
  return static_cast<int>(((days + 3) % 7 + 7) % 7);
}

double fractional_hour(UnixSeconds ts) noexcept {
  std::int64_t rem = ts % kSecondsPerDay;
  if (rem < 0) rem += kSecondsPerDay;
  return static_cast<double>(rem) / kSecondsPerHour;
}

std::string format_timestamp(UnixSeconds ts) {
  const CivilTime c = to_civil(ts);
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%04d-%02d-%02d %02d:%02d:%02d", c.year,
                c.month, c.day, c.hour, c.minute, c.second);
  return buffer;
}

UnixSeconds parse_timestamp(std::string_view text) {
  CivilTime c;
  char buffer[32];
  if (text.size() >= sizeof buffer) {
    throw std::runtime_error{"parse_timestamp: input too long"};
  }
  text.copy(buffer, text.size());
  buffer[text.size()] = '\0';
  if (std::sscanf(buffer, "%d-%d-%d %d:%d:%d", &c.year, &c.month, &c.day,
                  &c.hour, &c.minute, &c.second) != 6) {
    throw std::runtime_error{"parse_timestamp: expected YYYY-MM-DD HH:MM:SS, got '" +
                             std::string{text} + "'"};
  }
  if (c.month < 1 || c.month > 12 || c.day < 1 || c.day > 31 || c.hour < 0 ||
      c.hour > 23 || c.minute < 0 || c.minute > 59 || c.second < 0 ||
      c.second > 60) {
    throw std::runtime_error{"parse_timestamp: field out of range in '" +
                             std::string{text} + "'"};
  }
  return to_unix(c);
}

}  // namespace wtp::util
