#include "features/streaming.h"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <ranges>
#include <stdexcept>
#include <string>

namespace wtp::features {

StreamingWindowAggregator::StreamingWindowAggregator(const FeatureSchema& schema,
                                                     WindowConfig config)
    : schema_{&schema}, encoder_{schema}, config_{config} {
  check_window_config(config);
}

void StreamingWindowAggregator::reset() {
  buffer_.clear();
  started_ = false;
  origin_ = 0;
  last_timestamp_ = 0;
  next_k_ = 0;
}

Window StreamingWindowAggregator::build_window(util::UnixSeconds start,
                                               util::UnixSeconds end) const {
  const auto last = std::find_if(
      buffer_.begin(), buffer_.end(),
      [end](const Buffered& item) { return item.timestamp >= end; });
  Window window;
  window.start = start;
  window.end = end;
  window.transaction_count = static_cast<std::size_t>(last - buffer_.begin());
  window.features = merge_window(
      std::ranges::subrange(buffer_.begin(), last) |
          std::views::transform(&Buffered::encoded),
      *schema_);
  return window;
}

void StreamingWindowAggregator::emit_ready(util::UnixSeconds horizon,
                                           bool flushing,
                                           std::vector<Window>& out) {
  while (!buffer_.empty()) {
    const util::UnixSeconds start = origin_ + next_k_ * config_.shift_s;
    const util::UnixSeconds end = start + config_.duration_s;
    // A window is only final once no future transaction can land in it.
    if (!flushing && end > horizon) break;
    // Drop buffered transactions that precede every open window.
    while (!buffer_.empty() && buffer_.front().timestamp < start) {
      buffer_.pop_front();
    }
    if (buffer_.empty()) break;
    const util::UnixSeconds next_txn = buffer_.front().timestamp;
    if (next_txn >= end) {
      // Empty window: jump to the first index whose window contains the
      // next buffered transaction, i.e. the smallest k with
      // start > next_txn - duration.
      const std::int64_t jump =
          (next_txn - config_.duration_s - origin_) / config_.shift_s + 1;
      next_k_ = std::max(next_k_ + 1, jump);
      continue;
    }
    out.push_back(build_window(start, end));
    ++next_k_;
  }
}

std::vector<Window> StreamingWindowAggregator::push(const log::WebTransaction& txn) {
  if (started_ && txn.timestamp < last_timestamp_) {
    throw std::invalid_argument{
        "StreamingWindowAggregator::push: transactions must be time-ordered (" +
        std::to_string(txn.timestamp) + " after " +
        std::to_string(last_timestamp_) + ")"};
  }
  if (!started_) {
    started_ = true;
    origin_ = txn.timestamp;
  }
  last_timestamp_ = txn.timestamp;
  buffer_.push_back({txn.timestamp, encoder_.encode(txn)});

  std::vector<Window> completed;
  emit_ready(txn.timestamp, /*flushing=*/false, completed);
  return completed;
}

void StreamingWindowAggregator::save_state(std::ostream& out) const {
  out.precision(17);  // max_digits10: doubles round-trip exactly through text
  out << "aggregator " << (started_ ? 1 : 0) << ' ' << origin_ << ' '
      << last_timestamp_ << ' ' << next_k_ << ' ' << buffer_.size() << '\n';
  for (const auto& item : buffer_) {
    out << item.timestamp << ' ' << item.encoded.entries().size();
    for (const auto& entry : item.encoded.entries()) {
      out << ' ' << entry.index << ':' << entry.value;
    }
    out << '\n';
  }
}

void StreamingWindowAggregator::restore_state(std::istream& in) {
  const auto fail = [](const char* what) -> std::runtime_error {
    return std::runtime_error{std::string{"StreamingWindowAggregator::restore_state: "} + what};
  };
  std::string tag;
  int started = 0;
  util::UnixSeconds origin = 0;
  util::UnixSeconds last = 0;
  std::int64_t next_k = 0;
  std::size_t count = 0;
  if (!(in >> tag >> started >> origin >> last >> next_k >> count) ||
      tag != "aggregator") {
    throw fail("bad header");
  }
  std::deque<Buffered> buffer;
  for (std::size_t i = 0; i < count; ++i) {
    util::UnixSeconds timestamp = 0;
    std::size_t entries = 0;
    if (!(in >> timestamp >> entries)) throw fail("bad buffered entry");
    std::vector<util::SparseVector::Entry> parsed;
    parsed.reserve(entries);
    for (std::size_t j = 0; j < entries; ++j) {
      std::size_t index = 0;
      char colon = 0;
      double value = 0.0;
      if (!(in >> index >> colon >> value) || colon != ':') {
        throw fail("bad feature entry");
      }
      parsed.push_back({index, value});
    }
    buffer.push_back({timestamp, util::SparseVector{std::move(parsed)}});
  }
  started_ = started != 0;
  origin_ = origin;
  last_timestamp_ = last;
  next_k_ = next_k;
  buffer_ = std::move(buffer);
}

std::vector<Window> StreamingWindowAggregator::flush() {
  std::vector<Window> completed;
  emit_ready(0, /*flushing=*/true, completed);
  buffer_.clear();
  return completed;
}

}  // namespace wtp::features
