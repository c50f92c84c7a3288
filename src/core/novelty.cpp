#include "core/novelty.h"

#include <set>
#include <unordered_set>

#include "features/split.h"
#include "util/stats.h"

namespace wtp::core {

std::string_view to_string(NoveltyField field) noexcept {
  switch (field) {
    case NoveltyField::kCategory: return "category";
    case NoveltyField::kApplicationType: return "application_type";
    case NoveltyField::kMediaType: return "media_type";
  }
  return "?";
}

namespace {

const util::SharedString& field_value(const log::WebTransaction& txn,
                                      NoveltyField field) {
  switch (field) {
    case NoveltyField::kCategory: return txn.category;
    case NoveltyField::kApplicationType: return txn.application_type;
    case NoveltyField::kMediaType: return txn.media_type;
  }
  return txn.category;
}

/// |values(subsequent) \ values(observed)| / |values(subsequent)|.
double field_novelty_ratio(std::span<const log::WebTransaction> observed,
                           std::span<const log::WebTransaction> subsequent,
                           NoveltyField field) {
  std::set<std::string_view> seen;
  for (const auto& txn : observed) seen.insert(field_value(txn, field));
  std::set<std::string_view> later;
  for (const auto& txn : subsequent) later.insert(field_value(txn, field));
  if (later.empty()) return 0.0;
  std::size_t novel = 0;
  for (const auto& value : later) {
    if (!seen.contains(value)) ++novel;
  }
  return static_cast<double>(novel) / static_cast<double>(later.size());
}

}  // namespace

std::map<NoveltyField, std::vector<NoveltyPoint>> feature_novelty(
    const std::map<std::string, std::vector<log::WebTransaction>>& by_user,
    util::UnixSeconds epoch_base, int first_week, int last_week) {
  std::map<NoveltyField, std::vector<NoveltyPoint>> curves;
  for (const NoveltyField field : {NoveltyField::kCategory,
                                   NoveltyField::kApplicationType,
                                   NoveltyField::kMediaType}) {
    std::vector<NoveltyPoint> curve;
    for (int week = first_week; week <= last_week; ++week) {
      const util::UnixSeconds t = epoch_base + week * util::kSecondsPerWeek;
      util::RunningStats stats;
      for (const auto& [user, txns] : by_user) {
        (void)user;
        const auto split = features::epoch_split(txns, t);
        if (split.subsequent.empty() || split.observed.empty()) continue;
        stats.add(field_novelty_ratio(split.observed, split.subsequent, field));
      }
      curve.push_back({week, stats.mean(), stats.variance(), stats.count()});
    }
    curves.emplace(field, std::move(curve));
  }
  return curves;
}

std::vector<NoveltyPoint> window_novelty(
    const std::map<std::string, std::vector<log::WebTransaction>>& by_user,
    const features::FeatureSchema& schema, const features::WindowConfig& window,
    util::UnixSeconds epoch_base, int first_week, int last_week) {
  const features::WindowAggregator aggregator{schema, window};

  // Pre-compute each user's full window sequence once; the epoch split then
  // partitions windows by their start time.
  struct UserWindows {
    std::vector<features::Window> windows;
  };
  std::vector<UserWindows> all;
  all.reserve(by_user.size());
  for (const auto& [user, txns] : by_user) {
    (void)user;
    all.push_back({aggregator.aggregate(txns)});
  }

  std::vector<NoveltyPoint> curve;
  for (int week = first_week; week <= last_week; ++week) {
    const util::UnixSeconds t = epoch_base + week * util::kSecondsPerWeek;
    util::RunningStats stats;
    for (const auto& user : all) {
      // Hash observed vectors for exact-match lookup.
      std::set<std::vector<util::SparseVector::Entry>> observed;
      std::size_t subsequent_total = 0;
      std::size_t subsequent_novel = 0;
      for (const auto& w : user.windows) {
        const std::vector<util::SparseVector::Entry> key{
            w.features.entries().begin(), w.features.entries().end()};
        if (w.start < t) {
          observed.insert(key);
        } else {
          ++subsequent_total;
          if (!observed.contains(key)) ++subsequent_novel;
        }
      }
      if (subsequent_total == 0 || observed.empty()) continue;
      stats.add(static_cast<double>(subsequent_novel) /
                static_cast<double>(subsequent_total));
    }
    curve.push_back({week, stats.mean(), stats.variance(), stats.count()});
  }
  return curve;
}

FootprintStats user_footprints(
    const std::map<std::string, std::vector<log::WebTransaction>>& by_user) {
  FootprintStats stats;
  if (by_user.empty()) return stats;
  for (const auto& [user, txns] : by_user) {
    (void)user;
    std::set<std::string_view> categories;
    std::set<std::string_view> sub_types;
    std::set<std::string_view> applications;
    for (const auto& txn : txns) {
      categories.insert(txn.category);
      // A slash-less media type ("-" in a real proxy log) has no sub-type,
      // and the schema gives it no column either.
      const auto sub_type = log::split_media_type(txn.media_type).sub_type;
      if (!sub_type.empty()) sub_types.insert(sub_type);
      applications.insert(txn.application_type);
    }
    stats.mean_categories += static_cast<double>(categories.size());
    stats.mean_sub_types += static_cast<double>(sub_types.size());
    stats.mean_application_types += static_cast<double>(applications.size());
  }
  const auto n = static_cast<double>(by_user.size());
  stats.mean_categories /= n;
  stats.mean_sub_types /= n;
  stats.mean_application_types /= n;
  return stats;
}

}  // namespace wtp::core
