#include "features/streaming.h"

#include <algorithm>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <ranges>
#include <span>
#include <stdexcept>
#include <string>

namespace wtp::features {

StreamingWindowAggregator::StreamingWindowAggregator(const FeatureSchema& schema,
                                                     WindowConfig config)
    : schema_{&schema}, encoder_{schema}, config_{config} {
  check_window_config(config);
}

void StreamingWindowAggregator::reset() {
  buffer_ = {};
  front_ = 0;
  started_ = false;
  origin_ = 0;
  last_timestamp_ = 0;
  next_k_ = 0;
}

Window StreamingWindowAggregator::build_window(util::UnixSeconds start,
                                               util::UnixSeconds end) const {
  const auto first = buffer_.begin() + static_cast<std::ptrdiff_t>(front_);
  const auto last = std::find_if(
      first, buffer_.end(),
      [end](const Buffered& item) { return item.timestamp >= end; });
  Window window;
  window.start = start;
  window.end = end;
  window.transaction_count = static_cast<std::size_t>(last - first);
  window.features = merge_window(
      std::ranges::subrange(first, last) | std::views::transform(&Buffered::encoded),
      *schema_);
  return window;
}

void StreamingWindowAggregator::emit_ready(util::UnixSeconds horizon,
                                           bool flushing,
                                           std::vector<Window>& out) {
  const WindowGrid grid{config_, origin_};
  const auto timestamp = [this](std::size_t i) { return buffer_[i].timestamp; };
  while (front_ < buffer_.size()) {
    // A window is only final once no future transaction can land in it;
    // until then the buffer keeps what precedes it (save_state writes it).
    if (!flushing && grid.end(next_k_) > horizon) break;
    const std::optional<std::int64_t> k =
        grid.seek(next_k_, front_, buffer_.size(), timestamp);
    if (!k) break;
    if (*k != next_k_) {
      next_k_ = *k;  // skipped empty windows; the new one is checked above
      continue;
    }
    out.push_back(build_window(grid.start(next_k_), grid.end(next_k_)));
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
  // Compacting once the consumed front is half the vector moves each
  // transaction O(1) times.  A serving session lives until it is evicted,
  // so once a burst has drained to under a quarter of the capacity, the
  // live transactions move to a vector twice their size and the burst's
  // memory is given back.
  if (front_ != 0 && 2 * front_ >= buffer_.size()) {
    const auto live = buffer_.begin() + static_cast<std::ptrdiff_t>(front_);
    const std::size_t live_count = buffer_.size() - front_;
    if (buffer_.capacity() > kKeptCapacity && buffer_.capacity() > 4 * live_count) {
      std::vector<Buffered> kept;
      kept.reserve(2 * live_count);
      kept.insert(kept.end(), live, buffer_.end());
      buffer_ = std::move(kept);
    } else {
      buffer_.erase(buffer_.begin(), live);
    }
    front_ = 0;
  }
  buffer_.push_back({txn.timestamp, encoder_.encode(txn)});

  std::vector<Window> completed;
  emit_ready(txn.timestamp, /*flushing=*/false, completed);
  return completed;
}

void StreamingWindowAggregator::save_state(std::ostream& out) const {
  out.precision(17);  // max_digits10: doubles round-trip exactly through text
  out << "aggregator " << (started_ ? 1 : 0) << ' ' << origin_ << ' '
      << last_timestamp_ << ' ' << next_k_ << ' ' << buffered() << '\n';
  for (const auto& item : std::span{buffer_}.subspan(front_)) {
    out << item.timestamp << ' ' << item.encoded.entries().size();
    for (const auto& entry : item.encoded.entries()) {
      out << ' ' << entry.index << ':' << entry.value;
    }
    out << '\n';
  }
}

void StreamingWindowAggregator::restore_state(std::istream& in) {
  const auto fail = [](std::size_t line, const std::string& what) {
    return std::runtime_error{"StreamingWindowAggregator::restore_state: line " +
                              std::to_string(line) + ": " + what};
  };
  std::string tag;
  int started = 0;
  util::UnixSeconds origin = 0;
  util::UnixSeconds last = 0;
  std::int64_t next_k = 0;
  std::size_t count = 0;
  if (!(in >> tag >> started >> origin >> last >> next_k >> count) ||
      tag != "aggregator") {
    throw fail(1, "bad header");
  }
  const std::size_t dimension = schema_->dimension();
  std::vector<Buffered> buffer;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t line = i + 2;  // the header is line 1
    util::UnixSeconds timestamp = 0;
    std::size_t entries = 0;
    if (!(in >> timestamp >> entries)) throw fail(line, "bad buffered entry");
    if (entries > EncodedTransaction::kMaxEntries) {
      throw fail(line, std::to_string(entries) + " entries, more than the " +
                           std::to_string(EncodedTransaction::kMaxEntries) +
                           " an encoded transaction holds");
    }
    Buffered item{timestamp, {}};
    std::size_t previous = 0;
    for (std::size_t j = 0; j < entries; ++j) {
      std::size_t index = 0;
      char colon = 0;
      double value = 0.0;
      if (!(in >> index >> colon >> value) || colon != ':') {
        throw fail(line, "bad feature entry");
      }
      if (index >= dimension) {
        throw fail(line, "column " + std::to_string(index) + " >= dimension " +
                             std::to_string(dimension));
      }
      if (j > 0 && index <= previous) {
        throw fail(line, "column " + std::to_string(index) + " after column " +
                             std::to_string(previous) +
                             ": entries must be strictly ascending");
      }
      previous = index;
      // The encoder writes no zeros; one read back is dropped.
      if (value != 0.0) item.encoded.push_back(index, value);
    }
    buffer.push_back(item);
  }
  started_ = started != 0;
  origin_ = origin;
  last_timestamp_ = last;
  next_k_ = next_k;
  buffer_ = std::move(buffer);
  front_ = 0;
}

std::vector<Window> StreamingWindowAggregator::flush() {
  std::vector<Window> completed;
  emit_ready(0, /*flushing=*/true, completed);
  buffer_ = {};
  front_ = 0;
  return completed;
}

}  // namespace wtp::features
