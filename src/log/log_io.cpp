#include "log/log_io.h"

#include <fstream>
#include <functional>
#include <stdexcept>
#include <string_view>
#include <unordered_set>

#include "util/csv.h"

namespace wtp::log {

std::vector<std::string> log_header() {
  return {"timestamp",  "url",        "scheme",           "action",
          "user_id",    "device_id",  "category",         "media_type",
          "application_type", "reputation", "private_flag"};
}

std::vector<std::string> to_fields(const WebTransaction& txn) {
  return {util::format_timestamp(txn.timestamp),
          txn.url,
          std::string{to_string(txn.scheme)},
          std::string{to_string(txn.action)},
          txn.user_id,
          txn.device_id,
          txn.category,
          txn.media_type,
          txn.application_type,
          std::string{to_string(txn.reputation)},
          txn.private_destination ? "1" : "0"};
}

namespace {

constexpr std::size_t kFieldCount = 11;

/// Parses the fields of one row; `make` turns each string field into its
/// handle.
template <typename MakeString>
WebTransaction parse_fields(const std::vector<std::string>& fields, MakeString&& make) {
  if (fields.size() != kFieldCount) {
    throw std::runtime_error{"log::from_fields: expected " +
                             std::to_string(kFieldCount) + " fields, got " +
                             std::to_string(fields.size())};
  }
  WebTransaction txn;
  txn.timestamp = util::parse_timestamp(fields[0]);
  txn.url = make(fields[1]);
  txn.scheme = parse_uri_scheme(fields[2]);
  txn.action = parse_http_action(fields[3]);
  txn.user_id = make(fields[4]);
  txn.device_id = make(fields[5]);
  txn.category = make(fields[6]);
  txn.media_type = make(fields[7]);
  txn.application_type = make(fields[8]);
  txn.reputation = parse_reputation(fields[9]);
  if (fields[10] == "1") {
    txn.private_destination = true;
  } else if (fields[10] == "0") {
    txn.private_destination = false;
  } else {
    throw std::runtime_error{"log::from_fields: private_flag must be 0/1, got '" +
                             fields[10] + "'"};
  }
  return txn;
}

/// Reads the fields of the next row, skipping a header row at the top of
/// the stream; returns false at end of stream.
bool read_data_row(std::istream& in, bool& checked_header, std::vector<std::string>& fields) {
  util::CsvReader reader{in};
  while (reader.read_row(fields)) {
    if (!checked_header) {
      checked_header = true;
      if (!fields.empty() && fields[0] == "timestamp") continue;  // skip header
    }
    return true;
  }
  return false;
}

}  // namespace

WebTransaction from_fields(const std::vector<std::string>& fields) {
  return parse_fields(fields, [](std::string_view text) { return util::SharedString{text}; });
}

void write_log(std::ostream& out, const std::vector<WebTransaction>& txns) {
  util::CsvWriter writer{out};
  writer.write_row(log_header());
  for (const auto& txn : txns) writer.write_row(to_fields(txn));
}

void write_log_file(const std::string& path, const std::vector<WebTransaction>& txns) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"write_log_file: cannot open '" + path + "'"};
  write_log(out, txns);
}

std::vector<WebTransaction> read_log(std::istream& in) {
  // Every row read stays resident, so the table holds no value that some
  // row does not hold too; it goes when the read returns.
  std::unordered_set<util::SharedString, util::TransparentStringHash, std::equal_to<>>
      strings;
  const auto intern = [&strings](std::string_view text) -> util::SharedString {
    if (text.empty()) return {};
    auto it = strings.find(text);
    if (it == strings.end()) it = strings.emplace(text).first;
    return *it;
  };
  std::vector<WebTransaction> txns;
  std::vector<std::string> fields;
  bool checked_header = false;
  while (read_data_row(in, checked_header, fields)) {
    txns.push_back(parse_fields(fields, intern));
  }
  return txns;
}

std::vector<WebTransaction> read_log_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"read_log_file: cannot open '" + path + "'"};
  return read_log(in);
}

LogReader::LogReader(std::istream& in) : in_{in} {}

bool LogReader::next(WebTransaction& txn) {
  std::vector<std::string> fields;
  if (!read_data_row(in_, checked_header_, fields)) return false;
  txn = from_fields(fields);
  return true;
}

}  // namespace wtp::log
