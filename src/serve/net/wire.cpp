#include "serve/net/wire.h"

#include <charconv>
#include <cstring>

#include "util/strings.h"

namespace wtp::serve::net {

namespace {

void append_u16le(std::string& out, std::size_t value) {
  if (value > 0xFFFF) {
    throw WireError{"encode: string field exceeds 65535 bytes"};
  }
  out.push_back(static_cast<char>(value & 0xFF));
  out.push_back(static_cast<char>((value >> 8) & 0xFF));
}

void append_u32le(std::string& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

void append_u64le(std::string& out, std::uint64_t bits) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((bits >> shift) & 0xFF));
  }
}

void append_i64le(std::string& out, std::int64_t value) {
  append_u64le(out, static_cast<std::uint64_t>(value));
}

void append_string_field(std::string& out, std::string_view value) {
  append_u16le(out, value.size());
  out += value;
}

/// Bounds-checked little-endian reader over a payload.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : data_{payload} {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  [[nodiscard]] std::uint16_t u16le() {
    need(2);
    const auto lo = static_cast<std::uint8_t>(data_[pos_]);
    const auto hi = static_cast<std::uint8_t>(data_[pos_ + 1]);
    pos_ += 2;
    return static_cast<std::uint16_t>(lo | (hi << 8));
  }

  [[nodiscard]] std::uint64_t u64le() {
    need(8);
    std::uint64_t bits = 0;
    for (int byte = 0; byte < 8; ++byte) {
      bits |= static_cast<std::uint64_t>(
                  static_cast<std::uint8_t>(data_[pos_ + byte]))
              << (8 * byte);
    }
    pos_ += 8;
    return bits;
  }

  [[nodiscard]] std::int64_t i64le() {
    return static_cast<std::int64_t>(u64le());
  }

  /// Views the payload: valid only while it is.
  [[nodiscard]] std::string_view string_field() {
    const std::size_t length = u16le();
    need(length);
    const std::string_view value = data_.substr(pos_, length);
    pos_ += length;
    return value;
  }

  [[nodiscard]] bool exhausted() const noexcept { return pos_ == data_.size(); }

 private:
  void need(std::size_t bytes) const {
    if (pos_ + bytes > data_.size()) {
      throw WireError{"decode: transaction payload truncated at offset " +
                      std::to_string(pos_)};
    }
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

template <typename Enum>
Enum checked_enum(std::uint8_t raw, std::uint8_t count, const char* what) {
  if (raw >= count) {
    throw WireError{std::string{"decode: out-of-range "} + what + " value " +
                    std::to_string(raw)};
  }
  return static_cast<Enum>(raw);
}

// -- minimal strict JSON-object scanner --------------------------------------
//
// The wire's text encoding is a flat object of string / integer / bool
// values, so a purpose-built scanner stays small and strict instead of
// pulling in a JSON library the container does not have.

class JsonObjectScanner {
 public:
  explicit JsonObjectScanner(std::string_view text) : text_{text} {}

  /// Walks "{ "key": value, ... }", invoking field() per member.  Values are
  /// handed over still encoded (quoted strings include their quotes).
  void scan(const std::function<void(std::string_view key,
                                     std::string_view raw_value)>& field) {
    skip_ws();
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      finish();
      return;
    }
    while (true) {
      skip_ws();
      const std::string_view key = raw_string();
      skip_ws();
      expect(':');
      skip_ws();
      field(unescape(key), raw_value());
      skip_ws();
      const char c = next();
      if (c == '}') break;
      if (c != ',') throw WireError{"json: expected ',' or '}'"};
    }
    finish();
  }

  /// Decodes a raw value captured by scan() as a JSON string.
  [[nodiscard]] static std::string as_string(std::string_view raw) {
    if (raw.size() < 2 || raw.front() != '"' || raw.back() != '"') {
      throw WireError{"json: expected a string value"};
    }
    return unescape(raw.substr(1, raw.size() - 2));
  }

  [[nodiscard]] static std::int64_t as_int(std::string_view raw) {
    std::int64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(raw.data(), raw.data() + raw.size(), value);
    if (ec != std::errc{} || ptr != raw.data() + raw.size()) {
      throw WireError{"json: expected an integer value, got '" +
                      std::string{raw} + "'"};
    }
    return value;
  }

 private:
  [[nodiscard]] char peek() const {
    if (pos_ >= text_.size()) throw WireError{"json: unexpected end of line"};
    return text_[pos_];
  }

  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (next() != c) {
      throw WireError{std::string{"json: expected '"} + c + "'"};
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  void finish() {
    skip_ws();
    if (pos_ != text_.size()) {
      throw WireError{"json: trailing content after object"};
    }
  }

  /// Returns the escaped body of a quoted string (without the quotes).
  [[nodiscard]] std::string_view raw_string() {
    expect('"');
    const std::size_t begin = pos_;
    while (true) {
      const char c = next();
      if (c == '\\') {
        ++pos_;  // skip the escaped character (validated by unescape)
      } else if (c == '"') {
        return text_.substr(begin, pos_ - 1 - begin);
      }
    }
  }

  /// Captures one value: string, or a bare token (number / true / false).
  [[nodiscard]] std::string_view raw_value() {
    if (peek() == '"') {
      const std::size_t begin = pos_;
      (void)raw_string();
      return text_.substr(begin, pos_ - begin);
    }
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && text_[pos_] != ',' && text_[pos_] != '}' &&
           text_[pos_] != ' ' && text_[pos_] != '\t') {
      ++pos_;
    }
    if (pos_ == begin) throw WireError{"json: empty value"};
    return text_.substr(begin, pos_ - begin);
  }

  [[nodiscard]] static std::string unescape(std::string_view escaped) {
    std::string out;
    out.reserve(escaped.size());
    for (std::size_t i = 0; i < escaped.size(); ++i) {
      const char c = escaped[i];
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (++i >= escaped.size()) throw WireError{"json: dangling escape"};
      switch (escaped[i]) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (i + 4 >= escaped.size()) {
            throw WireError{"json: truncated \\u escape"};
          }
          unsigned code = 0;
          const auto* begin = escaped.data() + i + 1;
          const auto [ptr, ec] = std::from_chars(begin, begin + 4, code, 16);
          if (ec != std::errc{} || ptr != begin + 4 || code > 0xFF) {
            throw WireError{"json: unsupported \\u escape (only \\u00XX)"};
          }
          out.push_back(static_cast<char>(code));
          i += 4;
          break;
        }
        default: throw WireError{"json: unknown escape"};
      }
    }
    return out;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string encode_txn_payload(const log::WebTransaction& txn,
                               std::uint64_t trace_id) {
  std::string payload;
  payload.reserve(16 + txn.url.size() + txn.user_id.size() +
                  txn.device_id.size() + txn.category.size() +
                  txn.media_type.size() + txn.application_type.size() + 21);
  append_i64le(payload, txn.timestamp);
  payload.push_back(static_cast<char>(txn.scheme));
  payload.push_back(static_cast<char>(txn.action));
  payload.push_back(static_cast<char>(txn.reputation));
  payload.push_back(txn.private_destination ? 1 : 0);
  append_string_field(payload, txn.url);
  append_string_field(payload, txn.user_id);
  append_string_field(payload, txn.device_id);
  append_string_field(payload, txn.category);
  append_string_field(payload, txn.media_type);
  append_string_field(payload, txn.application_type);
  if (trace_id != 0) {
    payload.push_back(static_cast<char>(kTraceExtensionTag));
    append_u64le(payload, trace_id);
  }
  return payload;
}

log::WebTransaction decode_txn_payload(std::string_view payload,
                                       std::uint64_t* trace_id) {
  PayloadReader reader{payload};
  log::WebTransaction txn;
  txn.timestamp = reader.i64le();
  txn.scheme = checked_enum<log::UriScheme>(reader.u8(), log::kUriSchemeCount,
                                            "scheme");
  txn.action = checked_enum<log::HttpAction>(reader.u8(), log::kHttpActionCount,
                                             "action");
  txn.reputation = checked_enum<log::Reputation>(reader.u8(), 4, "reputation");
  const std::uint8_t private_flag = reader.u8();
  if (private_flag > 1) {
    throw WireError{"decode: private flag must be 0 or 1"};
  }
  txn.private_destination = private_flag == 1;
  txn.url = reader.string_field();
  txn.user_id = reader.string_field();
  txn.device_id = reader.string_field();
  txn.category = reader.string_field();
  txn.media_type = reader.string_field();
  txn.application_type = reader.string_field();
  // Optional tagged extensions (currently only the trace id).  Unknown tags
  // stay a hard error: silently skipping unparsed bytes would let encoder
  // drift go unnoticed.
  while (!reader.exhausted()) {
    const std::uint8_t tag = reader.u8();
    if (tag == kTraceExtensionTag) {
      const std::uint64_t id = reader.u64le();
      if (trace_id != nullptr) *trace_id = id;
      continue;
    }
    throw WireError{"decode: unknown payload extension tag " +
                    std::to_string(tag)};
  }
  return txn;
}

namespace {

void append_frame(std::string& out, FrameType type, std::string_view payload) {
  out.push_back(static_cast<char>(kFrameMarker));
  out.push_back(static_cast<char>(type));
  append_u32le(out, static_cast<std::uint32_t>(payload.size()));
  out += payload;
}

/// The log:: enum parsers throw plain runtime_errors; anything a client can
/// trigger over the wire must surface as WireError so the server's
/// bad-input path (close this connection only) handles it.
template <typename Fn>
auto wire_checked(Fn&& fn, const char* what) -> decltype(fn()) {
  try {
    return fn();
  } catch (const WireError&) {
    throw;
  } catch (const std::exception& error) {
    throw WireError{std::string{"json: bad "} + what + ": " + error.what()};
  }
}

}  // namespace

void append_txn_frame(std::string& out, const log::WebTransaction& txn,
                      std::uint64_t trace_id) {
  append_frame(out, FrameType::kTransaction,
               encode_txn_payload(txn, trace_id));
}

void append_control_frame(std::string& out, FrameType type) {
  append_frame(out, type, {});
}

std::string to_json_line(const log::WebTransaction& txn,
                         std::uint64_t trace_id) {
  std::string out = "{\"type\":\"txn\"";
  out += ",\"ts\":" + std::to_string(txn.timestamp);
  out += ",\"url\":\"" + util::json_escape(txn.url) + '"';
  out += ",\"scheme\":\"";
  out += log::to_string(txn.scheme);
  out += "\",\"action\":\"";
  out += log::to_string(txn.action);
  out += "\",\"user\":\"" + util::json_escape(txn.user_id) + '"';
  out += ",\"device\":\"" + util::json_escape(txn.device_id) + '"';
  out += ",\"category\":\"" + util::json_escape(txn.category) + '"';
  out += ",\"media\":\"" + util::json_escape(txn.media_type) + '"';
  out += ",\"app\":\"" + util::json_escape(txn.application_type) + '"';
  out += ",\"reputation\":\"";
  out += log::to_string(txn.reputation);
  out += "\",\"private\":";
  out += txn.private_destination ? '1' : '0';
  if (trace_id != 0) out += ",\"trace\":" + std::to_string(trace_id);
  out += '}';
  return out;
}

WireMessage parse_json_line(std::string_view line) {
  WireMessage message;
  std::string type;
  bool saw_ts = false;
  JsonObjectScanner scanner{line};
  scanner.scan([&](std::string_view key, std::string_view raw) {
    if (key == "type") {
      type = JsonObjectScanner::as_string(raw);
    } else if (key == "ts") {
      message.txn.timestamp = JsonObjectScanner::as_int(raw);
      saw_ts = true;
    } else if (key == "url") {
      message.txn.url = JsonObjectScanner::as_string(raw);
    } else if (key == "scheme") {
      message.txn.scheme = wire_checked(
          [&] { return log::parse_uri_scheme(JsonObjectScanner::as_string(raw)); },
          "scheme");
    } else if (key == "action") {
      message.txn.action = wire_checked(
          [&] { return log::parse_http_action(JsonObjectScanner::as_string(raw)); },
          "action");
    } else if (key == "user") {
      message.txn.user_id = JsonObjectScanner::as_string(raw);
    } else if (key == "device") {
      message.txn.device_id = JsonObjectScanner::as_string(raw);
    } else if (key == "category") {
      message.txn.category = JsonObjectScanner::as_string(raw);
    } else if (key == "media") {
      message.txn.media_type = JsonObjectScanner::as_string(raw);
    } else if (key == "app") {
      message.txn.application_type = JsonObjectScanner::as_string(raw);
    } else if (key == "reputation") {
      message.txn.reputation = wire_checked(
          [&] { return log::parse_reputation(JsonObjectScanner::as_string(raw)); },
          "reputation");
    } else if (key == "private") {
      const std::int64_t flag = JsonObjectScanner::as_int(raw);
      if (flag != 0 && flag != 1) {
        throw WireError{"json: private must be 0 or 1"};
      }
      message.txn.private_destination = flag == 1;
    } else if (key == "trace") {
      const std::int64_t id = JsonObjectScanner::as_int(raw);
      if (id < 0) throw WireError{"json: trace id must be >= 0"};
      message.trace_id = static_cast<std::uint64_t>(id);
    } else {
      throw WireError{"json: unknown field '" + std::string{key} + "'"};
    }
  });
  // The log parsers' strictness lives in parse_* above; here only the
  // message shape is validated (a txn must carry its timestamp).
  if (type == "txn") {
    if (!saw_ts) throw WireError{"json: txn line missing \"ts\""};
    message.type = FrameType::kTransaction;
    return message;
  }
  if (type == "end") {
    message.type = FrameType::kEnd;
    return message;
  }
  if (type == "shutdown") {
    message.type = FrameType::kShutdown;
    return message;
  }
  throw WireError{"json: unknown message type '" + type + "'"};
}

FrameDecoder::FrameDecoder(std::size_t max_message_bytes)
    : max_message_bytes_{max_message_bytes} {}

void FrameDecoder::feed(std::string_view bytes,
                        const std::function<void(WireMessage&&)>& on_message) {
  if (bytes.empty()) return;
  if (mode_ == Mode::kUndecided) {
    mode_ = static_cast<std::uint8_t>(bytes.front()) == kFrameMarker
                ? Mode::kBinary
                : Mode::kText;
  }
  buffer_ += bytes;
  drain(on_message);
}

void FrameDecoder::drain(const std::function<void(WireMessage&&)>& on_message) {
  if (mode_ == Mode::kText) {
    std::size_t begin = 0;
    while (true) {
      const std::size_t newline = buffer_.find('\n', begin);
      if (newline == std::string::npos) break;
      std::string_view line{buffer_.data() + begin, newline - begin};
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      begin = newline + 1;
      if (util::trim(line).empty()) continue;  // blank keep-alives are fine
      on_message(parse_json_line(line));
    }
    buffer_.erase(0, begin);
    if (buffer_.size() > max_message_bytes_) {
      throw WireError{"text line exceeds " +
                      std::to_string(max_message_bytes_) + " bytes"};
    }
    return;
  }
  // Frames are consumed by advancing `begin`; the buffer is compacted once
  // per feed, so a read carrying many frames costs O(bytes), not
  // O(frames x bytes).
  std::size_t begin = 0;
  while (buffer_.size() - begin >= kFrameHeaderBytes) {
    const char* frame = buffer_.data() + begin;
    if (static_cast<std::uint8_t>(frame[0]) != kFrameMarker) {
      throw WireError{"binary stream lost frame sync (bad marker)"};
    }
    const auto raw_type = static_cast<std::uint8_t>(frame[1]);
    std::uint32_t length = 0;
    for (int byte = 0; byte < 4; ++byte) {
      length |= static_cast<std::uint32_t>(
                    static_cast<std::uint8_t>(frame[2 + byte]))
                << (8 * byte);
    }
    if (length > max_message_bytes_) {
      throw WireError{"frame payload of " + std::to_string(length) +
                      " bytes exceeds the " +
                      std::to_string(max_message_bytes_) + "-byte limit"};
    }
    if (buffer_.size() - begin < kFrameHeaderBytes + length) break;
    const std::string_view payload{frame + kFrameHeaderBytes, length};
    WireMessage message;
    switch (raw_type) {
      case static_cast<std::uint8_t>(FrameType::kTransaction):
        message.type = FrameType::kTransaction;
        message.txn = decode_txn_payload(payload, &message.trace_id);
        break;
      case static_cast<std::uint8_t>(FrameType::kEnd):
      case static_cast<std::uint8_t>(FrameType::kShutdown):
        if (!payload.empty()) {
          throw WireError{"control frame must carry an empty payload"};
        }
        message.type = static_cast<FrameType>(raw_type);
        break;
      default:
        throw WireError{"unknown frame type " + std::to_string(raw_type)};
    }
    begin += kFrameHeaderBytes + length;
    on_message(std::move(message));
  }
  buffer_.erase(0, begin);
}

}  // namespace wtp::serve::net
