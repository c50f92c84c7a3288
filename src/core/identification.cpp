#include "core/identification.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string_view>

#include "obs/trace.h"

namespace wtp::core {

bool IdentificationEvent::accepted(const std::string& user) const {
  return std::find(accepted_by.begin(), accepted_by.end(), user) !=
         accepted_by.end();
}

void ProducerTally::add(util::UnixSeconds timestamp, util::SharedString user) {
  producers_.emplace_back(timestamp, std::move(user));
}

std::string ProducerTally::majority(util::UnixSeconds start,
                                    util::UnixSeconds end) {
  while (!producers_.empty() && producers_.front().first < start) {
    producers_.pop_front();
  }
  std::map<std::string_view, std::size_t> counts;
  for (const auto& [timestamp, user] : producers_) {
    if (timestamp >= end) break;
    ++counts[user];
  }
  // Strict > over the ordered map: ties keep the smallest user.
  std::string majority;
  std::size_t best = 0;
  for (const auto& [user, count] : counts) {
    if (count > best) {
      best = count;
      majority = user;
    }
  }
  return majority;
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
  ProducerTally truth;
  std::size_t next_txn = 0;  // first txn not yet in the tally
  for (std::size_t t = 0; t < w; ++t) {
    const features::Window& window = windows[t];
    IdentificationEvent event;
    event.window_start = window.start;
    event.window_end = window.end;
    event.transaction_count = window.transaction_count;
    for (; next_txn < device_txns.size() &&
           device_txns[next_txn].timestamp < window.end;
         ++next_txn) {
      truth.add(device_txns[next_txn].timestamp, device_txns[next_txn].user_id);
    }
    event.true_user = truth.majority(window.start, window.end);

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
