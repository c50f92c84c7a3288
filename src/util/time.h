// Civil-time helpers for the proxy-log timestamp format
// ("2015-05-29 05:05:04") and week arithmetic used by the novelty analysis.
//
// Timestamps are Unix seconds (UTC).  We implement the civil-time conversion
// directly (Howard Hinnant's days-from-civil algorithm) so results do not
// depend on the host timezone database.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace wtp::util {

using UnixSeconds = std::int64_t;

inline constexpr UnixSeconds kSecondsPerMinute = 60;
inline constexpr UnixSeconds kSecondsPerHour = 3600;
inline constexpr UnixSeconds kSecondsPerDay = 86400;
inline constexpr UnixSeconds kSecondsPerWeek = 7 * kSecondsPerDay;

/// Broken-down UTC time.
struct CivilTime {
  int year = 1970;
  int month = 1;   ///< 1-12
  int day = 1;     ///< 1-31
  int hour = 0;    ///< 0-23
  int minute = 0;  ///< 0-59
  int second = 0;  ///< 0-59

  friend bool operator==(const CivilTime&, const CivilTime&) = default;
};

/// Days since 1970-01-01 for a civil date (proleptic Gregorian).
[[nodiscard]] std::int64_t days_from_civil(int year, int month, int day) noexcept;

[[nodiscard]] UnixSeconds to_unix(const CivilTime& civil) noexcept;
[[nodiscard]] CivilTime to_civil(UnixSeconds ts) noexcept;

/// Day of week, 0 = Monday .. 6 = Sunday.
[[nodiscard]] int day_of_week(UnixSeconds ts) noexcept;

/// Fractional hour of day in UTC (e.g. 13.5 = 13:30).
[[nodiscard]] double fractional_hour(UnixSeconds ts) noexcept;

/// Formats "YYYY-MM-DD HH:MM:SS" (the proxy-log timestamp format).
[[nodiscard]] std::string format_timestamp(UnixSeconds ts);

/// Parses "YYYY-MM-DD HH:MM:SS".  Throws std::runtime_error on bad input.
[[nodiscard]] UnixSeconds parse_timestamp(std::string_view text);

}  // namespace wtp::util
