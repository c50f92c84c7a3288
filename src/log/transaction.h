// The augmented web-transaction record produced by the secure proxy.
//
// A web transaction (paper §I) is one HTTP request/response to a single URL.
// The proxy augments it with proprietary service knowledge: website category,
// media type, application type, and URL reputation.  The paper's example log
// line:
//   2015-05-29 05:05:04, www.inlinegames.com, HTTP/1.0, GET, user_9,
//   Games, text/html, ...
//
// A row is 72 bytes: its six string fields are util::SharedString handles,
// and rows that hold the same value share one buffer when their producer
// built one handle per value (the generator per trace, log::read_log per
// read; DESIGN §7, "One transaction log").  A string_view into a field
// stays valid for as long as any handle to its buffer lives, so moving or
// copying the row does not invalidate it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/shared_string.h"
#include "util/time.h"

namespace wtp::log {

/// HTTP methods the paper's feature space covers (Tab. I: 4 columns).
enum class HttpAction : std::uint8_t { kGet, kPost, kConnect, kHead };
inline constexpr int kHttpActionCount = 4;

/// Request scheme (Tab. I: 2 columns).
enum class UriScheme : std::uint8_t { kHttp, kHttps };
inline constexpr int kUriSchemeCount = 2;

/// URL reputation assigned by the logging service (paper §III-A):
/// Minimal/Medium/High risk when verified, or Unverified.
enum class Reputation : std::uint8_t {
  kUnverified,
  kMinimalRisk,
  kMediumRisk,
  kHighRisk,
};

[[nodiscard]] std::string_view to_string(HttpAction action) noexcept;
[[nodiscard]] std::string_view to_string(UriScheme scheme) noexcept;
[[nodiscard]] std::string_view to_string(Reputation reputation) noexcept;

/// Parsers throw std::runtime_error on unknown values (a malformed log line
/// must be surfaced, not silently coerced).
[[nodiscard]] HttpAction parse_http_action(std::string_view text);
[[nodiscard]] UriScheme parse_uri_scheme(std::string_view text);
[[nodiscard]] Reputation parse_reputation(std::string_view text);

/// Numeric risk used as the reputation feature value (paper §III-B):
/// Minimal = 0, Medium = 0.5, High = 1; Unverified defaults to 0.
[[nodiscard]] double reputation_risk(Reputation reputation) noexcept;

/// True when the reputation has been verified by the logging service.
[[nodiscard]] bool reputation_verified(Reputation reputation) noexcept;

/// One augmented web transaction.
///
/// String-valued fields (category/media type/application type/host) are open
/// vocabularies: the feature schema assigns them bag-of-words columns at
/// training time (paper §III-B).  user_id and device_id drive user-specific
/// and host-specific windowing respectively (paper §III-C).
struct WebTransaction {
  util::UnixSeconds timestamp = 0;   ///< request time (Unix seconds, UTC)
  util::SharedString url;            ///< requested host/URL
  UriScheme scheme = UriScheme::kHttp;
  HttpAction action = HttpAction::kGet;
  util::SharedString user_id;        ///< authenticated user ("user_9")
  util::SharedString device_id;      ///< source device/IP ("device_3")
  util::SharedString category;       ///< website category ("Games")
  util::SharedString media_type;     ///< MIME type ("text/html")
  util::SharedString application_type;  ///< service application ("CloudFlare")
  Reputation reputation = Reputation::kUnverified;
  bool private_destination = false;  ///< internal-network request

  friend bool operator==(const WebTransaction&, const WebTransaction&) = default;
};
static_assert(sizeof(WebTransaction) <= 80,
              "a row is its timestamp, six 8-byte handles and four flags");

/// Splits "video/mp4" into {"video", "mp4"}.  A missing '/' yields the whole
/// string as super-type and an empty sub-type (paper §III-B's split).  The
/// parts view the argument's bytes and allocate nothing, so they are valid
/// only while it is: never split a temporary string and keep the parts.
struct MediaTypeParts {
  std::string_view super_type;
  std::string_view sub_type;
};
[[nodiscard]] MediaTypeParts split_media_type(std::string_view media_type);

}  // namespace wtp::log
