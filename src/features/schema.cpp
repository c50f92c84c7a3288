#include "features/schema.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace wtp::features {

namespace {

std::vector<std::string> sorted_unique(std::vector<std::string> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

template <typename Index>
Index index_of(const std::vector<std::string>& values) {
  Index index;
  index.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) index.emplace(values[i], i);
  return index;
}

template <typename Index>
std::optional<std::size_t> lookup(const Index& map, std::string_view value,
                                  std::size_t offset) {
  const auto it = map.find(value);
  if (it == map.end()) return std::nullopt;
  return offset + it->second;
}

}  // namespace

std::string_view to_string(FeatureGroup group) noexcept {
  switch (group) {
    case FeatureGroup::kHttpAction: return "http action";
    case FeatureGroup::kUriScheme: return "uri scheme";
    case FeatureGroup::kPrivateFlag: return "public address flag";
    case FeatureGroup::kReputationRisk: return "reputation";
    case FeatureGroup::kReputationVerified: return "reputation verified";
    case FeatureGroup::kCategory: return "category";
    case FeatureGroup::kSuperType: return "supertype";
    case FeatureGroup::kSubType: return "subtype";
    case FeatureGroup::kApplicationType: return "application type";
  }
  return "?";
}

FeatureSchema::FeatureSchema(std::vector<std::string> categories,
                             std::vector<std::string> super_types,
                             std::vector<std::string> sub_types,
                             std::vector<std::string> application_types)
    : categories_{sorted_unique(std::move(categories))},
      super_types_{sorted_unique(std::move(super_types))},
      sub_types_{sorted_unique(std::move(sub_types))},
      application_types_{sorted_unique(std::move(application_types))} {
  category_index_ = index_of<VocabularyIndex>(categories_);
  super_type_index_ = index_of<VocabularyIndex>(super_types_);
  sub_type_index_ = index_of<VocabularyIndex>(sub_types_);
  application_type_index_ = index_of<VocabularyIndex>(application_types_);
  build_layout();
}

FeatureSchema FeatureSchema::from_transactions(
    std::span<const log::WebTransaction> txns) {
  // The sets view the rows' strings; the constructor copies and sorts them.
  // A field whose handle shares the previous row's buffer holds a value
  // already inserted, so it is skipped without hashing (a log built with
  // one handle per value repeats handles from row to row).
  std::unordered_set<std::string_view> categories;
  std::unordered_set<std::string_view> super_types;
  std::unordered_set<std::string_view> sub_types;
  std::unordered_set<std::string_view> application_types;
  const log::WebTransaction* previous = nullptr;
  for (const auto& txn : txns) {
    const bool first = previous == nullptr;
    if (first || !txn.category.shares_with(previous->category)) {
      categories.insert(txn.category);
    }
    if (first || !txn.media_type.shares_with(previous->media_type)) {
      const auto media = log::split_media_type(txn.media_type);
      super_types.insert(media.super_type);
      if (!media.sub_type.empty()) sub_types.insert(media.sub_type);
    }
    if (first || !txn.application_type.shares_with(previous->application_type)) {
      application_types.insert(txn.application_type);
    }
    previous = &txn;
  }
  const auto strings = [](const std::unordered_set<std::string_view>& values) {
    return std::vector<std::string>(values.begin(), values.end());
  };
  return FeatureSchema{strings(categories), strings(super_types), strings(sub_types),
                       strings(application_types)};
}

void FeatureSchema::build_layout() {
  const std::size_t group_sizes[kFeatureGroupCount] = {
      static_cast<std::size_t>(log::kHttpActionCount),
      static_cast<std::size_t>(log::kUriSchemeCount),
      1,  // private flag
      1,  // reputation risk
      1,  // reputation verified
      categories_.size(),
      super_types_.size(),
      sub_types_.size(),
      application_types_.size(),
  };
  std::size_t offset = 0;
  for (int g = 0; g < kFeatureGroupCount; ++g) {
    offsets_[g] = offset;
    sizes_[g] = group_sizes[g];
    offset += group_sizes[g];
  }
  dimension_ = offset;
}

std::size_t FeatureSchema::group_offset(FeatureGroup group) const noexcept {
  return offsets_[static_cast<int>(group)];
}

std::size_t FeatureSchema::group_size(FeatureGroup group) const noexcept {
  return sizes_[static_cast<int>(group)];
}

FeatureGroup FeatureSchema::column_group(std::size_t column) const {
  if (column >= dimension_) {
    throw std::out_of_range{"FeatureSchema::column_group: column " +
                            std::to_string(column) + " >= dimension " +
                            std::to_string(dimension_)};
  }
  for (int g = kFeatureGroupCount - 1; g >= 0; --g) {
    if (column >= offsets_[g] && sizes_[g] > 0) return static_cast<FeatureGroup>(g);
  }
  return FeatureGroup::kHttpAction;
}

std::optional<std::size_t> FeatureSchema::category_column(std::string_view value) const {
  return lookup(category_index_, value, group_offset(FeatureGroup::kCategory));
}

std::optional<std::size_t> FeatureSchema::super_type_column(std::string_view value) const {
  return lookup(super_type_index_, value, group_offset(FeatureGroup::kSuperType));
}

std::optional<std::size_t> FeatureSchema::sub_type_column(std::string_view value) const {
  return lookup(sub_type_index_, value, group_offset(FeatureGroup::kSubType));
}

std::optional<std::size_t> FeatureSchema::application_type_column(
    std::string_view value) const {
  return lookup(application_type_index_, value,
                group_offset(FeatureGroup::kApplicationType));
}

std::size_t FeatureSchema::http_action_column(log::HttpAction action) const noexcept {
  return group_offset(FeatureGroup::kHttpAction) + static_cast<std::size_t>(action);
}

std::size_t FeatureSchema::uri_scheme_column(log::UriScheme scheme) const noexcept {
  return group_offset(FeatureGroup::kUriScheme) + static_cast<std::size_t>(scheme);
}

std::size_t FeatureSchema::private_flag_column() const noexcept {
  return group_offset(FeatureGroup::kPrivateFlag);
}

std::size_t FeatureSchema::reputation_risk_column() const noexcept {
  return group_offset(FeatureGroup::kReputationRisk);
}

std::size_t FeatureSchema::reputation_verified_column() const noexcept {
  return group_offset(FeatureGroup::kReputationVerified);
}

bool FeatureSchema::is_numeric_column(std::size_t column) const noexcept {
  return column == private_flag_column() || column == reputation_risk_column() ||
         column == reputation_verified_column();
}

std::vector<std::uint32_t> FeatureSchema::numeric_columns() const {
  return {static_cast<std::uint32_t>(private_flag_column()),
          static_cast<std::uint32_t>(reputation_risk_column()),
          static_cast<std::uint32_t>(reputation_verified_column())};
}

std::string FeatureSchema::column_name(std::size_t column) const {
  const FeatureGroup group = column_group(column);
  const std::size_t local = column - group_offset(group);
  switch (group) {
    case FeatureGroup::kHttpAction:
      return "action:" + std::string{log::to_string(static_cast<log::HttpAction>(local))};
    case FeatureGroup::kUriScheme:
      return "scheme:" + std::string{log::to_string(static_cast<log::UriScheme>(local))};
    case FeatureGroup::kPrivateFlag: return "private_flag";
    case FeatureGroup::kReputationRisk: return "reputation_risk";
    case FeatureGroup::kReputationVerified: return "reputation_verified";
    case FeatureGroup::kCategory: return "category:" + categories_[local];
    case FeatureGroup::kSuperType: return "supertype:" + super_types_[local];
    case FeatureGroup::kSubType: return "subtype:" + sub_types_[local];
    case FeatureGroup::kApplicationType:
      return "application_type:" + application_types_[local];
  }
  return "?";
}

std::vector<std::pair<std::string, std::size_t>> FeatureSchema::composition() const {
  std::vector<std::pair<std::string, std::size_t>> rows;
  rows.reserve(kFeatureGroupCount);
  for (int g = 0; g < kFeatureGroupCount; ++g) {
    rows.emplace_back(std::string{to_string(static_cast<FeatureGroup>(g))}, sizes_[g]);
  }
  return rows;
}

}  // namespace wtp::features
