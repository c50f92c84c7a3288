#include "core/profile_store.h"

#include <algorithm>
#include <numeric>

namespace wtp::core {

ProfileStore::ProfileStore(features::WindowConfig window,
                           features::FeatureSchema schema,
                           std::vector<UserProfile> profiles)
    : window_{window}, schema_{std::move(schema)}, profiles_{std::move(profiles)} {
  find_index_.resize(profiles_.size());
  std::iota(find_index_.begin(), find_index_.end(), std::size_t{0});
  std::sort(find_index_.begin(), find_index_.end(),
            [this](std::size_t a, std::size_t b) {
              return profiles_[a].user_id() < profiles_[b].user_id();
            });
}

std::vector<std::string> ProfileStore::user_ids() const {
  std::vector<std::string> ids;
  ids.reserve(profiles_.size());
  for (const auto& profile : profiles_) ids.push_back(profile.user_id());
  return ids;
}

const UserProfile* ProfileStore::find(const std::string& user) const {
  const auto it = std::lower_bound(
      find_index_.begin(), find_index_.end(), user,
      [this](std::size_t index, const std::string& key) {
        return profiles_[index].user_id() < key;
      });
  if (it == find_index_.end() || profiles_[*it].user_id() != user) return nullptr;
  return &profiles_[*it];
}

}  // namespace wtp::core
