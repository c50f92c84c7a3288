#include "core/profile_store.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/test_trace.h"

namespace wtp::core {
namespace {

const features::WindowConfig kWindow{60, 30};

ProfileStore make_store() {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  std::vector<UserProfile> profiles;
  for (const auto& user : dataset.user_ids()) {
    ProfileParams params;
    params.type = user.size() % 2 ? ClassifierType::kOcSvm : ClassifierType::kSvdd;
    params.kernel = {svm::KernelType::kRbf, 0.0, 0.0, 3};
    params.regularizer = 0.1;
    profiles.push_back(UserProfile::train(user,
                                          *dataset.train_matrix(user, kWindow),
                                          dataset.schema().dimension(), params));
  }
  return ProfileStore{kWindow, dataset.schema(), std::move(profiles)};
}

TEST(ProfileStore, ExposesComponents) {
  const ProfileStore store = make_store();
  EXPECT_EQ(store.window(), kWindow);
  EXPECT_EQ(store.profiles().size(), testing::tiny_dataset().user_count());
  EXPECT_EQ(store.user_ids(), testing::tiny_dataset().user_ids());
  EXPECT_EQ(store.schema().dimension(), testing::tiny_dataset().schema().dimension());
}

TEST(ProfileStore, FindLocatesProfiles) {
  const ProfileStore store = make_store();
  const std::string user = store.user_ids().front();
  const UserProfile* found = store.find(user);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->user_id(), user);
  EXPECT_EQ(store.find("nobody"), nullptr);
}

TEST(ProfileStore, FindNegativeLookupsAtEveryBoundary) {
  const ProfileStore store = make_store();
  auto sorted = store.user_ids();
  std::sort(sorted.begin(), sorted.end());
  // Before the first id, past the last id, a strict prefix of an existing
  // id, and an existing id with a suffix: all must miss without touching a
  // neighbouring profile.
  EXPECT_EQ(store.find(""), nullptr);
  EXPECT_EQ(store.find("\x01"), nullptr);
  EXPECT_EQ(store.find(sorted.back() + "~"), nullptr);
  const std::string& first = sorted.front();
  if (first.size() > 1) {
    EXPECT_EQ(store.find(first.substr(0, first.size() - 1)), nullptr);
  }
  EXPECT_EQ(store.find(first + "_suffix"), nullptr);
}

TEST(ProfileStore, FindResolvesDuplicateUserIds) {
  // Duplicate ids are legal in store order (the store is positional; find
  // is a convenience): find must return a profile carrying the id, and
  // every other id must stay reachable.
  const ProfileStore base = make_store();
  std::vector<UserProfile> profiles{base.profiles().begin(),
                                    base.profiles().end()};
  const std::string dup = profiles.front().user_id();
  profiles.push_back(profiles.front());
  const ProfileStore store{kWindow, base.schema(), std::move(profiles)};

  const UserProfile* found = store.find(dup);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->user_id(), dup);
  for (const auto& user : base.user_ids()) {
    ASSERT_NE(store.find(user), nullptr) << user;
  }
}

}  // namespace
}  // namespace wtp::core
