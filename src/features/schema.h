// Feature-space layout: maps transaction fields to feature-vector columns.
//
// Reproduces Tab. I of the paper.  Fixed groups first, then bag-of-words
// vocabularies in a deterministic order:
//
//   group                columns  aggregation
//   http action          4        disjunction (binary bag-of-words)
//   uri scheme           2        disjunction
//   public address flag  1        average (numeric: fraction private)
//   reputation (risk)    1        average (numeric: 0 / 0.5 / 1)
//   reputation verified  1        average (numeric; the paper's worked
//                                 example averages 1,1,0 -> 0.667)
//   category             |Vcat|   disjunction
//   supertype            |Vsup|   disjunction
//   subtype              |Vsub|   disjunction
//   application type     |Vapp|   disjunction
//
// With paper-scale vocabularies (105/8/257/464) the total is 843 columns.
// Vocabularies are learned from training data; values unseen at schema-build
// time have no column and are ignored at encode time (standard bag-of-words
// behaviour on out-of-vocabulary test values).
//
// Lookups run once per transaction on every encode, so they allocate
// nothing: the vocabulary maps hash string_views directly, and any view
// works, including a substring that is not null-terminated (the halves of a
// media type).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "log/transaction.h"

namespace wtp::features {

enum class FeatureGroup : std::uint8_t {
  kHttpAction,
  kUriScheme,
  kPrivateFlag,
  kReputationRisk,
  kReputationVerified,
  kCategory,
  kSuperType,
  kSubType,
  kApplicationType,
};
inline constexpr int kFeatureGroupCount = 9;

[[nodiscard]] std::string_view to_string(FeatureGroup group) noexcept;

class FeatureSchema {
 public:
  /// Builds a schema from explicit vocabularies.  Each vocabulary is
  /// deduplicated and sorted so the layout is independent of input order.
  FeatureSchema(std::vector<std::string> categories,
                std::vector<std::string> super_types,
                std::vector<std::string> sub_types,
                std::vector<std::string> application_types);

  /// Scans transactions and collects the observed vocabularies.  A media
  /// type without a '/' contributes its whole text as a super-type and no
  /// sub-type.
  [[nodiscard]] static FeatureSchema from_transactions(
      std::span<const log::WebTransaction> txns);

  /// Total number of feature columns (843 at paper scale).
  [[nodiscard]] std::size_t dimension() const noexcept { return dimension_; }

  [[nodiscard]] std::size_t group_offset(FeatureGroup group) const noexcept;
  [[nodiscard]] std::size_t group_size(FeatureGroup group) const noexcept;

  /// The group a column belongs to.
  [[nodiscard]] FeatureGroup column_group(std::size_t column) const;

  /// Column index for a vocabulary value; nullopt when out-of-vocabulary.
  [[nodiscard]] std::optional<std::size_t> category_column(std::string_view value) const;
  [[nodiscard]] std::optional<std::size_t> super_type_column(std::string_view value) const;
  [[nodiscard]] std::optional<std::size_t> sub_type_column(std::string_view value) const;
  [[nodiscard]] std::optional<std::size_t> application_type_column(std::string_view value) const;

  /// Columns for the fixed fields.
  [[nodiscard]] std::size_t http_action_column(log::HttpAction action) const noexcept;
  [[nodiscard]] std::size_t uri_scheme_column(log::UriScheme scheme) const noexcept;
  [[nodiscard]] std::size_t private_flag_column() const noexcept;
  [[nodiscard]] std::size_t reputation_risk_column() const noexcept;
  [[nodiscard]] std::size_t reputation_verified_column() const noexcept;

  /// True for columns aggregated by average rather than disjunction.
  [[nodiscard]] bool is_numeric_column(std::size_t column) const noexcept;

  /// The numeric (average-aggregated) columns, ascending — the bitset layout
  /// hint for util::FeatureMatrix::ensure_bitset (DESIGN §11).
  [[nodiscard]] std::vector<std::uint32_t> numeric_columns() const;

  /// Human-readable column name ("category:Games", "action:GET", ...).
  [[nodiscard]] std::string column_name(std::size_t column) const;

  /// Tab. I rows: per-group column counts in paper order.
  [[nodiscard]] std::vector<std::pair<std::string, std::size_t>> composition() const;

  /// Sorted vocabularies (schema layout order).
  [[nodiscard]] const std::vector<std::string>& categories() const noexcept { return categories_; }
  [[nodiscard]] const std::vector<std::string>& super_types() const noexcept { return super_types_; }
  [[nodiscard]] const std::vector<std::string>& sub_types() const noexcept { return sub_types_; }
  [[nodiscard]] const std::vector<std::string>& application_types() const noexcept { return application_types_; }

 private:
  /// Transparent hash: with std::equal_to<>, a VocabularyIndex finds a
  /// string_view without building a std::string.
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view value) const noexcept {
      return std::hash<std::string_view>{}(value);
    }
  };
  /// Vocabulary value -> index within its group.
  using VocabularyIndex =
      std::unordered_map<std::string, std::size_t, StringHash, std::equal_to<>>;

  void build_layout();

  std::vector<std::string> categories_;
  std::vector<std::string> super_types_;
  std::vector<std::string> sub_types_;
  std::vector<std::string> application_types_;
  VocabularyIndex category_index_;
  VocabularyIndex super_type_index_;
  VocabularyIndex sub_type_index_;
  VocabularyIndex application_type_index_;
  std::size_t offsets_[kFeatureGroupCount] = {};
  std::size_t sizes_[kFeatureGroupCount] = {};
  std::size_t dimension_ = 0;
};

}  // namespace wtp::features
