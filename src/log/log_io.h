// On-disk proxy-log format: CSV with one transaction per line, mirroring the
// paper's example line layout plus the augmentation fields.
//
// Column order:
//   timestamp, url, scheme, action, user_id, device_id, category,
//   media_type, application_type, reputation, private_flag
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "log/transaction.h"

namespace wtp::log {

/// Header row written at the top of every log file.
[[nodiscard]] std::vector<std::string> log_header();

/// Serializes one transaction to its CSV fields.
[[nodiscard]] std::vector<std::string> to_fields(const WebTransaction& txn);

/// Parses CSV fields into a transaction, with a fresh handle per string
/// field.  Throws std::runtime_error with the offending field on malformed
/// input.
[[nodiscard]] WebTransaction from_fields(const std::vector<std::string>& fields);

/// Writes a full log (header + rows) to a stream / file.
void write_log(std::ostream& out, const std::vector<WebTransaction>& txns);
void write_log_file(const std::string& path, const std::vector<WebTransaction>& txns);

/// Reads a full log.  A leading header row is detected and skipped.  Rows
/// that hold the same value share one buffer: the read interns through a
/// table of its own, which holds only values the returned rows hold and is
/// gone when the read returns.
[[nodiscard]] std::vector<WebTransaction> read_log(std::istream& in);
[[nodiscard]] std::vector<WebTransaction> read_log_file(const std::string& path);

/// Pull-based reader for logs too large to materialize.  Each transaction
/// it returns holds a fresh handle per string field, as from_fields does, so
/// the reader keeps no state that grows with its input.
class LogReader {
 public:
  explicit LogReader(std::istream& in);

  /// Reads the next transaction; returns false at end of stream.
  bool next(WebTransaction& txn);

 private:
  std::istream& in_;
  bool checked_header_ = false;
};

}  // namespace wtp::log
