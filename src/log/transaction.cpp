#include "log/transaction.h"

#include <stdexcept>

#include "util/strings.h"

namespace wtp::log {

std::string_view to_string(HttpAction action) noexcept {
  switch (action) {
    case HttpAction::kGet: return "GET";
    case HttpAction::kPost: return "POST";
    case HttpAction::kConnect: return "CONNECT";
    case HttpAction::kHead: return "HEAD";
  }
  return "GET";
}

std::string_view to_string(UriScheme scheme) noexcept {
  switch (scheme) {
    case UriScheme::kHttp: return "HTTP";
    case UriScheme::kHttps: return "HTTPS";
  }
  return "HTTP";
}

std::string_view to_string(Reputation reputation) noexcept {
  switch (reputation) {
    case Reputation::kUnverified: return "Unverified";
    case Reputation::kMinimalRisk: return "Minimal";
    case Reputation::kMediumRisk: return "Medium";
    case Reputation::kHighRisk: return "High";
  }
  return "Unverified";
}

HttpAction parse_http_action(std::string_view text) {
  if (text == "GET") return HttpAction::kGet;
  if (text == "POST") return HttpAction::kPost;
  if (text == "CONNECT") return HttpAction::kConnect;
  if (text == "HEAD") return HttpAction::kHead;
  throw std::runtime_error{"parse_http_action: unknown action '" + std::string{text} + "'"};
}

UriScheme parse_uri_scheme(std::string_view text) {
  const std::string lowered = util::to_lower(text);
  // Accept both the bare scheme and the protocol-version form in the paper's
  // example ("HTTP/1.0").
  if (util::starts_with(lowered, "https")) return UriScheme::kHttps;
  if (util::starts_with(lowered, "http")) return UriScheme::kHttp;
  throw std::runtime_error{"parse_uri_scheme: unknown scheme '" + std::string{text} + "'"};
}

Reputation parse_reputation(std::string_view text) {
  if (text == "Unverified") return Reputation::kUnverified;
  if (text == "Minimal") return Reputation::kMinimalRisk;
  if (text == "Medium") return Reputation::kMediumRisk;
  if (text == "High") return Reputation::kHighRisk;
  throw std::runtime_error{"parse_reputation: unknown reputation '" + std::string{text} + "'"};
}

double reputation_risk(Reputation reputation) noexcept {
  switch (reputation) {
    case Reputation::kMediumRisk: return 0.5;
    case Reputation::kHighRisk: return 1.0;
    case Reputation::kUnverified:
    case Reputation::kMinimalRisk: return 0.0;
  }
  return 0.0;
}

bool reputation_verified(Reputation reputation) noexcept {
  return reputation != Reputation::kUnverified;
}

MediaTypeParts split_media_type(std::string_view media_type) {
  const std::size_t slash = media_type.find('/');
  if (slash == std::string_view::npos) return {media_type, {}};
  return {media_type.substr(0, slash), media_type.substr(slash + 1)};
}

}  // namespace wtp::log
