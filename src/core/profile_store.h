// ProfileStore: the deployable artifact of the training pipeline, in memory.
//
// A set of trained user profiles is only usable together with (a) the
// feature schema that defined their columns and (b) the window
// configuration they were trained at.  The store bundles all three so the
// monitoring side (wtp_classify / wtp_identify / wtp_serve, or an embedding
// application) can encode fresh proxy logs identically.  On disk it is the
// mapped profile store: index::write_mapped_store writes one and
// index::read_mapped_store loads it back (index/mapped_store.h).
#pragma once

#include <string>
#include <vector>

#include "core/profiler.h"
#include "features/schema.h"
#include "features/window.h"

namespace wtp::core {

class ProfileStore {
 public:
  ProfileStore(features::WindowConfig window, features::FeatureSchema schema,
               std::vector<UserProfile> profiles);

  [[nodiscard]] const features::WindowConfig& window() const noexcept {
    return window_;
  }
  [[nodiscard]] const features::FeatureSchema& schema() const noexcept {
    return schema_;
  }
  [[nodiscard]] const std::vector<UserProfile>& profiles() const noexcept {
    return profiles_;
  }
  [[nodiscard]] std::vector<std::string> user_ids() const;

  /// Profile for a user, or nullptr when unknown.  O(log n): binary search
  /// over an index built once at construction, so per-window lookups in the
  /// serving engine don't degrade with user count.
  [[nodiscard]] const UserProfile* find(const std::string& user) const;

 private:
  features::WindowConfig window_;
  features::FeatureSchema schema_;
  std::vector<UserProfile> profiles_;
  std::vector<std::size_t> find_index_;  ///< profile indices sorted by user_id
};

}  // namespace wtp::core
