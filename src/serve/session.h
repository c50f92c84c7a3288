// Per-device streaming identification state.
//
// A session owns everything that must survive between transactions of one
// device: the window fold (features::StreamingWindowAggregator), the
// core::ProducerTally that labels each window with its ground-truth user,
// and the K-consecutive smoothing history (paper §V-B).  The offline
// core::UserIdentifier::monitor path runs the same fold and the same tally,
// so a session fed the same transactions yields the same windows and ground
// truths; the engine tests assert that byte for byte, smoothing included.
// Both sides score windows through core::score_windows, which is checked
// against per-row decision_value.
#pragma once

#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/identification.h"
#include "features/streaming.h"
#include "log/transaction.h"
#include "util/time.h"

namespace wtp::serve {

/// A window completed by a session, with its ground truth attached but not
/// yet scored against the profiles (the engine owns the scoring stage).
struct PendingWindow {
  features::Window window;
  std::string true_user;  ///< majority producer; ties break lexicographically
};

/// Not thread-safe: the engine guards each session with its shard's lock.
class DeviceSession {
 public:
  /// The schema must outlive the session.  `smooth` is the paper's K
  /// (consecutive accepted windows required to assert an identity; <= 1
  /// means single-window decisions).
  DeviceSession(std::string device_id, const features::FeatureSchema& schema,
                features::WindowConfig window, std::size_t smooth);

  /// Feeds one transaction (per-device time order enforced by the
  /// aggregator), returning the windows it completed.
  [[nodiscard]] std::vector<PendingWindow> push(const log::WebTransaction& txn);

  /// Ends the stream: returns all still-open windows.
  [[nodiscard]] std::vector<PendingWindow> flush();

  /// Records one scored window in the smoothing history and returns the
  /// identity decision for it (empty = undecided), replicating
  /// wtp_identify's decide_single / decide_consecutive policy.
  [[nodiscard]] std::string decide(const core::IdentificationEvent& event);

  [[nodiscard]] const std::string& device_id() const noexcept { return device_id_; }
  /// Timestamp of the most recent transaction (event time; drives TTL).
  [[nodiscard]] util::UnixSeconds last_seen() const noexcept { return last_seen_; }

  /// Serializes the full session (aggregator, producer tally, smoothing
  /// history) so a restored session continues the device's stream
  /// byte-identically.  Strings are length-prefixed, so arbitrary device and
  /// user ids round-trip.
  void save(std::ostream& out) const;

  /// Inverse of save().  `schema`/`window`/`smooth` must match the saving
  /// engine's configuration (the engine header enforces this).  Throws
  /// std::runtime_error on malformed input.
  [[nodiscard]] static DeviceSession restore(std::istream& in,
                                             const features::FeatureSchema& schema,
                                             features::WindowConfig window,
                                             std::size_t smooth);

 private:
  [[nodiscard]] std::vector<PendingWindow> attach_truth(
      std::vector<features::Window> windows);

  std::string device_id_;
  features::StreamingWindowAggregator aggregator_;
  core::ProducerTally truth_;
  std::deque<core::IdentificationEvent> history_;  ///< last `smooth` events
  std::size_t smooth_;
  util::UnixSeconds last_seen_ = 0;
};

}  // namespace wtp::serve
