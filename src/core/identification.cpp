#include "core/identification.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "obs/trace.h"

namespace wtp::core {

bool IdentificationEvent::accepted(const std::string& user) const {
  return std::find(accepted_by.begin(), accepted_by.end(), user) !=
         accepted_by.end();
}

UserIdentifier::UserIdentifier(std::span<const UserProfile> profiles,
                               const features::FeatureSchema& schema,
                               features::WindowConfig window,
                               svm::TransformMode tier)
    : profiles_{profiles}, schema_{&schema}, window_{window}, tier_{tier} {
  if (profiles.empty()) {
    throw std::invalid_argument{"UserIdentifier: no profiles"};
  }
}

std::vector<IdentificationEvent> UserIdentifier::monitor(
    std::span<const log::WebTransaction> device_txns) const {
  const features::WindowAggregator aggregator{*schema_, window_};
  const std::vector<features::Window> windows = aggregator.aggregate(device_txns);
  const std::size_t w = windows.size();

  // decisions[i * w + t]: profile i on window t.
  std::vector<double> decisions(profiles_.size() * w);
  if (w > 0) {
    const obs::TraceSpan span{"identify.score", "identify",
                              static_cast<std::uint64_t>(w)};
    util::FeatureMatrixBuilder builder;
    for (const auto& window : windows) builder.add_row(window.features);
    util::FeatureMatrix matrix = builder.build(schema_->dimension());
    matrix.ensure_bitset(schema_->numeric_columns());
    score_windows(profiles_, matrix, decisions, tier_);
  }

  std::vector<IdentificationEvent> events;
  events.reserve(w);
  std::size_t cursor = 0;  // first txn not yet before the current window
  for (std::size_t t = 0; t < w; ++t) {
    const features::Window& window = windows[t];
    IdentificationEvent event;
    event.window_start = window.start;
    event.window_end = window.end;
    event.transaction_count = window.transaction_count;

    // Ground truth: the user with the most transactions in the window.
    while (cursor < device_txns.size() &&
           device_txns[cursor].timestamp < window.start) {
      ++cursor;
    }
    std::map<std::string, std::size_t> producers;
    for (std::size_t i = cursor;
         i < device_txns.size() && device_txns[i].timestamp < window.end; ++i) {
      ++producers[device_txns[i].user_id];
    }
    std::size_t best_count = 0;
    for (const auto& [user, count] : producers) {
      if (count > best_count) {
        best_count = count;
        event.true_user = user;
      }
    }

    for (std::size_t i = 0; i < profiles_.size(); ++i) {
      if (decisions[i * w + t] >= 0.0) {
        event.accepted_by.push_back(profiles_[i].user_id());
      }
    }
    events.push_back(std::move(event));
  }
  return events;
}

std::string UserIdentifier::decide_single(const IdentificationEvent& event) {
  return event.accepted_by.size() == 1 ? event.accepted_by.front() : std::string{};
}

std::string UserIdentifier::decide_consecutive(
    std::span<const IdentificationEvent> recent_events, std::size_t run_length) {
  if (run_length == 0 || recent_events.size() < run_length) return {};
  const auto tail = recent_events.last(run_length);
  // Candidates: models accepting the newest window; keep those accepting all.
  std::string winner;
  std::size_t winners = 0;
  for (const auto& candidate : tail.back().accepted_by) {
    const bool all = std::all_of(
        tail.begin(), tail.end(),
        [&candidate](const IdentificationEvent& e) { return e.accepted(candidate); });
    if (all) {
      winner = candidate;
      ++winners;
    }
  }
  return winners == 1 ? winner : std::string{};
}

IdentificationMetrics summarize_events(
    std::span<const IdentificationEvent> events) {
  IdentificationMetrics metrics;
  metrics.windows = events.size();
  for (const auto& event : events) {
    if (!event.true_user.empty() && event.accepted(event.true_user)) {
      ++metrics.true_user_hits;
    }
    const std::string decision = UserIdentifier::decide_single(event);
    if (!decision.empty()) {
      ++metrics.decided;
      if (decision == event.true_user) ++metrics.correct;
    }
  }
  return metrics;
}

std::vector<SmoothingPoint> smoothing_sweep(
    std::span<const IdentificationEvent> events,
    std::span<const std::size_t> run_lengths) {
  std::vector<SmoothingPoint> points;
  points.reserve(run_lengths.size());
  for (const std::size_t run_length : run_lengths) {
    SmoothingPoint point;
    point.run_length = run_length;
    for (std::size_t end = run_length; end <= events.size(); ++end) {
      const auto recent = events.subspan(end - run_length, run_length);
      const std::string decision =
          UserIdentifier::decide_consecutive(recent, run_length);
      if (decision.empty()) continue;
      ++point.decided;
      if (decision == recent.back().true_user) ++point.correct;
    }
    points.push_back(point);
  }
  return points;
}

}  // namespace wtp::core
