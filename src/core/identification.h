// Online user identification on a shared device (paper §V-B, Fig. 3).
//
// Host-specific windowing: all transactions of a device are aggregated into
// sliding windows regardless of which user produced them; every user model
// is then applied to each window.  The model(s) that accept a window are
// that window's candidate identities; ground truth is the user who produced
// the majority of the window's transactions (ProducerTally, which the
// serving sessions hold too).  The consecutive-run smoothing
// the paper suggests (§V-B) is implemented as an optional decision rule.
#pragma once

#include <deque>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/profiler.h"
#include "features/schema.h"
#include "features/window.h"
#include "log/transaction.h"
#include "util/shared_string.h"
#include "util/time.h"

namespace wtp::core {

/// One monitored transaction window on a device.
struct IdentificationEvent {
  util::UnixSeconds window_start = 0;
  util::UnixSeconds window_end = 0;
  std::string true_user;                    ///< majority producer of the window
  std::vector<std::string> accepted_by;     ///< models that accepted it
  std::size_t transaction_count = 0;

  [[nodiscard]] bool accepted(const std::string& user) const;
};

/// The identification ground truth, kept incrementally: the user who
/// produced the most transactions of a window.  Producers are added in time
/// order and windows are asked for in non-decreasing start order.
class ProducerTally {
 public:
  /// Records one transaction of `user` at `timestamp`.
  void add(util::UnixSeconds timestamp, util::SharedString user);

  /// Majority producer of [start, end): strict count, ties go to the
  /// lexicographically smallest user, empty when nobody produced in it.
  /// Prunes the producers before `start`, which no later window contains.
  [[nodiscard]] std::string majority(util::UnixSeconds start,
                                     util::UnixSeconds end);

  void clear() noexcept { producers_.clear(); }

  /// The producers still held, oldest first.
  [[nodiscard]] const std::deque<std::pair<util::UnixSeconds, util::SharedString>>&
  producers() const noexcept {
    return producers_;
  }

 private:
  std::deque<std::pair<util::UnixSeconds, util::SharedString>> producers_;
};

class UserIdentifier {
 public:
  /// Profiles must outlive the identifier.  `tier` is the transform
  /// precision every window is scored in (svm/kernel.h).
  UserIdentifier(std::span<const UserProfile> profiles,
                 const features::FeatureSchema& schema,
                 features::WindowConfig window,
                 svm::TransformMode tier = svm::TransformMode::kExact);

  /// Runs every profile over the device's (time-sorted) transaction stream:
  /// its windows are scored as one block through score_windows and labelled
  /// through a ProducerTally.  Throws std::invalid_argument on out-of-order
  /// input.
  [[nodiscard]] std::vector<IdentificationEvent> monitor(
      std::span<const log::WebTransaction> device_txns) const;

  /// Single-window decision: the accepting model, or empty when zero or
  /// multiple models accept (undecidable from one window).
  [[nodiscard]] static std::string decide_single(const IdentificationEvent& event);

  /// Consecutive-run smoothing: identity = the user whose model accepted
  /// every one of the last `run_length` windows (empty when no user did).
  [[nodiscard]] static std::string decide_consecutive(
      std::span<const IdentificationEvent> recent_events, std::size_t run_length);

 private:
  std::span<const UserProfile> profiles_;
  const features::FeatureSchema* schema_;
  features::WindowConfig window_;
  svm::TransformMode tier_;
};

/// Accuracy summary of an identification run.
struct IdentificationMetrics {
  std::size_t windows = 0;
  std::size_t decided = 0;        ///< windows with a single-model decision
  std::size_t correct = 0;        ///< decided windows matching ground truth
  std::size_t true_user_hits = 0; ///< windows whose true user's model accepted

  [[nodiscard]] double decision_accuracy() const {
    return decided ? static_cast<double>(correct) / static_cast<double>(decided) : 0.0;
  }
  [[nodiscard]] double true_acceptance() const {
    return windows ? static_cast<double>(true_user_hits) / static_cast<double>(windows)
                   : 0.0;
  }
};

[[nodiscard]] IdentificationMetrics summarize_events(
    std::span<const IdentificationEvent> events);

/// Smoothing sweep (ablation A1): accuracy of decide_consecutive for each
/// run length in `run_lengths`, over a monitored event stream.
struct SmoothingPoint {
  std::size_t run_length = 1;
  std::size_t decided = 0;
  std::size_t correct = 0;
  [[nodiscard]] double accuracy() const {
    return decided ? static_cast<double>(correct) / static_cast<double>(decided) : 0.0;
  }
};

[[nodiscard]] std::vector<SmoothingPoint> smoothing_sweep(
    std::span<const IdentificationEvent> events,
    std::span<const std::size_t> run_lengths);

}  // namespace wtp::core
