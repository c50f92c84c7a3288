#include "synthetic/profile.h"

#include <gtest/gtest.h>

#include <set>

#include "synthetic/pools.h"

namespace wtp::synthetic {
namespace {

std::vector<Site> small_pool(util::Rng& rng) {
  SitePoolConfig config;
  config.num_sites = 200;
  config.num_categories = 30;
  config.num_media_types = 40;
  config.num_application_types = 60;
  return build_site_pool(config, rng);
}

TEST(SitePool, SitesAreWellFormed) {
  util::Rng rng{1};
  const auto sites = small_pool(rng);
  ASSERT_EQ(sites.size(), 200u);
  const auto categories = category_pool(30);
  const std::set<std::string> category_set{categories.begin(), categories.end()};
  for (const auto& site : sites) {
    ASSERT_FALSE(site.url.empty());
    ASSERT_TRUE(category_set.contains(site.category)) << site.category;
    ASSERT_FALSE(site.application_type.empty());
    ASSERT_GE(site.https_probability, 0.0);
    ASSERT_LE(site.https_probability, 1.0);
    ASSERT_FALSE(site.media_types.empty());
    ASSERT_EQ(site.media_types.size(), site.media_weights.size());
    for (const double w : site.media_weights) ASSERT_GT(w, 0.0);
    ASSERT_EQ(site.action_weights.size(), 4u);  // GET, POST, CONNECT, HEAD
    ASSERT_GT(site.action_weights[0], 0.0);     // GET always possible
    ASSERT_GT(site.resources_per_page, 0.0);
  }
}

TEST(SitePool, IsDeterministicGivenSeed) {
  util::Rng rng_a{42};
  util::Rng rng_b{42};
  const auto a = small_pool(rng_a);
  const auto b = small_pool(rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].url, b[i].url);
    ASSERT_EQ(a[i].category, b[i].category);
    ASSERT_EQ(a[i].media_types, b[i].media_types);
  }
}

TEST(SitePool, PrivateSitesGetIntranetUrls) {
  util::Rng rng{3};
  SitePoolConfig config;
  config.num_sites = 500;
  config.private_site_fraction = 0.5;
  const auto sites = build_site_pool(config, rng);
  std::size_t private_count = 0;
  for (const auto& site : sites) {
    if (site.is_private) {
      ++private_count;
      EXPECT_EQ(site.url.view().rfind("intranet-", 0), 0u) << site.url;
    }
  }
  EXPECT_GT(private_count, 150u);
  EXPECT_LT(private_count, 350u);
}

TEST(SitePool, RejectsEmptyConfig) {
  util::Rng rng{4};
  SitePoolConfig config;
  config.num_sites = 0;
  EXPECT_THROW((void)build_site_pool(config, rng), std::invalid_argument);
}

TEST(UserPopulation, ProfilesAreWellFormed) {
  util::Rng rng{5};
  auto sites = small_pool(rng);
  UserPopulationConfig config;
  config.num_users = 12;
  config.num_clusters = 3;
  const auto users = build_user_population(config, sites, rng);
  ASSERT_EQ(users.size(), 12u);
  for (std::size_t u = 0; u < users.size(); ++u) {
    const auto& user = users[u];
    EXPECT_EQ(user.user_id, "user_" + std::to_string(u + 1));
    EXPECT_GE(user.cluster, 0);
    EXPECT_LT(user.cluster, 3);
    ASSERT_FALSE(user.site_indices.empty());
    ASSERT_EQ(user.site_indices.size(), user.site_weights.size());
    ASSERT_EQ(user.site_indices.size(), user.adoption_week.size());
    for (const std::size_t index : user.site_indices) ASSERT_LT(index, sites.size());
    for (const double w : user.site_weights) ASSERT_GT(w, 0.0);
    for (const int week : user.adoption_week) {
      ASSERT_GE(week, 0);
      ASSERT_LE(week, config.max_adoption_week);
    }
    // Temporal habits sane.
    EXPECT_GT(user.sessions_per_day, 0.0);
    EXPECT_GT(user.work_end_hour, user.work_start_hour);
  }
}

TEST(UserPopulation, FavouriteSiteCountsInConfiguredRange) {
  util::Rng rng{6};
  auto sites = small_pool(rng);
  UserPopulationConfig config;
  config.num_users = 10;
  config.min_favourite_sites = 20;
  config.max_favourite_sites = 30;
  config.num_common_sites = 4;
  const auto users = build_user_population(config, sites, rng);
  for (const auto& user : users) {
    // favourites + the appended common sites
    EXPECT_GE(user.site_indices.size(), 20u);
    EXPECT_LE(user.site_indices.size(), 30u + config.num_common_sites);
  }
}

TEST(UserPopulation, CommonSitesArePresentWithLowWeight) {
  util::Rng rng{7};
  auto sites = small_pool(rng);
  UserPopulationConfig config;
  config.num_users = 6;
  config.num_common_sites = 3;
  const auto users = build_user_population(config, sites, rng);
  for (const auto& user : users) {
    double max_weight = 0.0;
    for (const double w : user.site_weights) max_weight = std::max(max_weight, w);
    // Common sites are appended at the tail; all must be present with weight
    // well below the user's top preference.
    const std::size_t n = user.site_indices.size();
    std::set<std::size_t> tail{user.site_indices.end() - 3, user.site_indices.end()};
    EXPECT_EQ(tail, (std::set<std::size_t>{0, 1, 2}));
    for (std::size_t i = n - 3; i < n; ++i) {
      EXPECT_LT(user.site_weights[i], 0.1 * max_weight);
    }
  }
}

TEST(UserPopulation, SameClusterUsersShareMoreSites) {
  util::Rng rng{8};
  SitePoolConfig pool_config;
  pool_config.num_sites = 2000;  // large pool: random overlap is negligible
  auto sites = build_site_pool(pool_config, rng);
  UserPopulationConfig config;
  config.num_users = 16;
  config.num_clusters = 4;
  config.num_common_sites = 0;
  const auto users = build_user_population(config, sites, rng);

  auto overlap = [](const UserBehaviorProfile& a, const UserBehaviorProfile& b) {
    const std::set<std::size_t> sa{a.site_indices.begin(), a.site_indices.end()};
    std::size_t shared = 0;
    for (const std::size_t s : b.site_indices) {
      if (sa.contains(s)) ++shared;
    }
    return shared;
  };
  double same_cluster = 0.0;
  double cross_cluster = 0.0;
  std::size_t same_pairs = 0;
  std::size_t cross_pairs = 0;
  for (std::size_t i = 0; i < users.size(); ++i) {
    for (std::size_t j = i + 1; j < users.size(); ++j) {
      if (users[i].cluster == users[j].cluster) {
        same_cluster += static_cast<double>(overlap(users[i], users[j]));
        ++same_pairs;
      } else {
        cross_cluster += static_cast<double>(overlap(users[i], users[j]));
        ++cross_pairs;
      }
    }
  }
  EXPECT_GT(same_cluster / static_cast<double>(same_pairs),
            cross_cluster / static_cast<double>(cross_pairs));
}

TEST(UserPopulation, RejectsInvalidInput) {
  util::Rng rng{9};
  auto sites = small_pool(rng);
  UserPopulationConfig config;
  config.num_users = 0;
  EXPECT_THROW((void)build_user_population(config, sites, rng), std::invalid_argument);
  const std::vector<Site> empty;
  config.num_users = 3;
  EXPECT_THROW((void)build_user_population(config, empty, rng), std::invalid_argument);
}

}  // namespace
}  // namespace wtp::synthetic
