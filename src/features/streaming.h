// Incremental (online) window aggregation: the repository's one window fold.
//
// A monitoring deployment sees transactions one at a time and must emit each
// window as soon as its period has elapsed (a new feature vector every S
// seconds, paper §IV-C).  StreamingWindowAggregator does that with
// O(window span) memory.  It is also the batch path:
// WindowAggregator::aggregate pushes a whole sequence and flushes, so batch
// and streaming windows are the same by construction.  Tests check the fold
// against a brute-force reference with its own sort-based merge
// (tests/features/window_reference.h).
//
// Once the buffer has grown to the stream's widest window, a push
// allocates only for the windows it completes: each transaction is encoded
// inline (EncodedTransaction) into a vector whose consumed front is
// compacted away, and the windows merge through merge_window's per-thread
// scratch.  When a burst drains, the buffer gives its capacity back, so an
// idle session holds about its current window, not its busiest one.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "features/encoder.h"
#include "features/window.h"

namespace wtp::features {

class StreamingWindowAggregator {
 public:
  /// The schema must outlive the aggregator.
  StreamingWindowAggregator(const FeatureSchema& schema, WindowConfig config);

  /// Feeds the next transaction.  Transactions must arrive in
  /// non-decreasing timestamp order (throws std::invalid_argument
  /// otherwise).  Returns the windows completed by this arrival, i.e.
  /// windows that can no longer receive transactions.
  [[nodiscard]] std::vector<Window> push(const log::WebTransaction& txn);

  /// Ends the stream: emits all remaining non-empty windows.
  [[nodiscard]] std::vector<Window> flush();

  /// Resets to the initial (empty) state.
  void reset();

  /// Serializes the live state — stream cursor plus the buffered encoded
  /// transactions — so a successor aggregator constructed over the same
  /// schema and window config resumes the stream byte-identically (the
  /// serving snapshot/restore path).  Doubles are written with 17
  /// significant digits and round-trip exactly.
  void save_state(std::ostream& out) const;

  /// Inverse of save_state: replaces the current state.  Throws
  /// std::runtime_error on malformed input, and on a buffered transaction
  /// the encoder could not have written: a column at or past the schema's
  /// dimension, entries not strictly ascending by column, or more than
  /// EncodedTransaction::kMaxEntries entries.  The message names the
  /// offending line of the state (the header is line 1).  A failed restore
  /// leaves the aggregator as it was.
  void restore_state(std::istream& in);

  [[nodiscard]] const WindowConfig& config() const noexcept { return config_; }
  /// Transactions currently buffered (still inside open windows).
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buffer_.size() - front_;
  }

 private:
  struct Buffered {
    util::UnixSeconds timestamp;
    EncodedTransaction encoded;
  };

  /// Emits all windows with end <= horizon (or all remaining when
  /// horizon-less flushing), appending to `out`.
  void emit_ready(util::UnixSeconds horizon, bool flushing,
                  std::vector<Window>& out);

  /// Builds the window [start, end) from the buffer, whose front has
  /// already been pruned to `start` and lies before `end`.
  [[nodiscard]] Window build_window(util::UnixSeconds start,
                                    util::UnixSeconds end) const;

  const FeatureSchema* schema_;
  TransactionEncoder encoder_;
  WindowConfig config_;
  /// A buffer of at most this capacity (20 KB) keeps it when push
  /// compacts it.  Shrinking smaller buffers too made the serving fold
  /// reallocate as ordinary devices' windows grew and drained: at 16,
  /// `paper25`'s fold cost 15–21% more a transaction (EXPERIMENTS.md).
  static constexpr std::size_t kKeptCapacity = 128;

  /// Buffered transactions are buffer_[front_, size); push compacts the
  /// consumed front away and gives back a drained burst's capacity, and
  /// flush and reset free the buffer.
  std::vector<Buffered> buffer_;
  std::size_t front_ = 0;
  bool started_ = false;
  util::UnixSeconds origin_ = 0;
  util::UnixSeconds last_timestamp_ = 0;
  std::int64_t next_k_ = 0;  ///< next window index to consider emitting
};

}  // namespace wtp::features
