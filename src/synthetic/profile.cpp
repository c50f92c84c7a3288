#include "synthetic/profile.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "synthetic/pools.h"

namespace wtp::synthetic {

namespace {

/// Media types a site serves: one dominant "page" type plus a few resource
/// types, all drawn from the global media pool (first entries of which are
/// the common web types: html, css, javascript, images).
void assign_media_types(Site& site, const std::vector<util::SharedString>& media_pool,
                        util::Rng& rng) {
  const std::size_t kind_count =
      2 + rng.uniform_index(std::min<std::size_t>(4, media_pool.size() - 1));
  std::set<std::size_t> chosen;
  // Biased toward the curated common types, but flat enough that sites
  // differ visibly in their sub-type mixes (the media-type columns carry a
  // large share of the discriminative signal; cf. Tab. I).
  const util::ZipfDistribution media_zipf{media_pool.size(), 0.9};
  while (chosen.size() < kind_count) chosen.insert(media_zipf(rng));
  double weight = 1.0;
  for (const std::size_t index : chosen) {
    site.media_types.push_back(media_pool[index]);
    site.media_weights.push_back(weight);
    weight *= 0.5;  // geometric decay: first type dominates
  }
}

/// HTTP action mix: mostly GET; POST-heavy for interactive sites; CONNECT
/// for HTTPS tunnelling; HEAD rare.
std::vector<double> sample_action_weights(double https_probability,
                                          util::Rng& rng) {
  const double post = rng.uniform(0.0, 0.25);
  const double connect = https_probability * rng.uniform(0.05, 0.35);
  const double head = rng.uniform(0.0, 0.04);
  const double get = 1.0;
  return {get, post, connect, head};
}

}  // namespace

std::vector<Site> build_site_pool(const SitePoolConfig& config, util::Rng& rng) {
  if (config.num_sites == 0) {
    throw std::invalid_argument{"build_site_pool: num_sites must be > 0"};
  }
  // One handle per pool value: every site holding a value, and every
  // transaction materialized from those sites, shares its buffer.
  const auto handles = [](const std::vector<std::string>& pool) {
    return std::vector<util::SharedString>(pool.begin(), pool.end());
  };
  const auto categories = handles(category_pool(config.num_categories));
  const auto media_types = handles(media_type_pool(config.num_media_types));
  const auto applications = handles(application_type_pool(config.num_application_types));

  const util::ZipfDistribution category_zipf{categories.size(), config.category_zipf};
  const util::ZipfDistribution application_zipf{applications.size(), config.application_zipf};

  std::vector<Site> sites;
  sites.reserve(config.num_sites);
  for (std::size_t i = 0; i < config.num_sites; ++i) {
    Site site;
    site.url = "www.site-" + std::to_string(i + 1) + ".example.com";
    site.category = categories[category_zipf(rng)];
    site.application_type = applications[application_zipf(rng)];
    site.https_probability = rng.uniform(0.1, 0.95);
    site.is_private = rng.bernoulli(config.private_site_fraction);
    if (site.is_private) {
      site.url = "intranet-" + std::to_string(i + 1) + ".corp.local";
      site.https_probability = 0.2;
    }
    if (rng.bernoulli(config.unverified_fraction)) {
      site.reputation = log::Reputation::kUnverified;
    } else if (rng.bernoulli(config.risky_fraction)) {
      site.reputation = rng.bernoulli(0.5) ? log::Reputation::kMediumRisk
                                           : log::Reputation::kHighRisk;
    } else {
      site.reputation = log::Reputation::kMinimalRisk;
    }
    assign_media_types(site, media_types, rng);
    site.action_weights = sample_action_weights(site.https_probability, rng);
    site.resources_per_page = rng.uniform(2.0, 8.0);
    sites.push_back(std::move(site));
  }
  return sites;
}

std::vector<UserBehaviorProfile> build_user_population(
    const UserPopulationConfig& config, const std::vector<Site>& sites,
    util::Rng& rng) {
  if (sites.empty()) {
    throw std::invalid_argument{"build_user_population: empty site pool"};
  }
  if (config.num_users == 0) {
    throw std::invalid_argument{"build_user_population: num_users must be > 0"};
  }
  const std::size_t clusters = std::max<std::size_t>(1, config.num_clusters);

  // Universally popular sites (search, email, CDNs): the first pool entries.
  const std::size_t common_count = std::min(config.num_common_sites, sites.size());

  // Cluster-shared pools: disjoint-ish random slices of the site pool.
  std::vector<std::vector<std::size_t>> cluster_sites(clusters);
  const std::size_t cluster_pool_size =
      std::max<std::size_t>(10, sites.size() / (2 * clusters));
  for (auto& pool : cluster_sites) {
    std::set<std::size_t> chosen;
    while (chosen.size() < cluster_pool_size) {
      chosen.insert(common_count + rng.uniform_index(sites.size() - common_count));
    }
    pool.assign(chosen.begin(), chosen.end());
  }

  // Activity skew across users (heavy-tailed per-user transaction counts).
  const util::ZipfDistribution site_popularity{sites.size(), 1.0};

  std::vector<UserBehaviorProfile> users;
  users.reserve(config.num_users);
  for (std::size_t u = 0; u < config.num_users; ++u) {
    UserBehaviorProfile profile;
    profile.user_id = "user_" + std::to_string(u + 1);
    profile.cluster = static_cast<int>(u % clusters);

    // --- favourite sites -------------------------------------------------
    // Clamp against small pools: a user cannot favour more distinct sites
    // than exist outside the common set, nor take more cluster sites than
    // the cluster pool holds (the selection loops would never terminate).
    const std::size_t favourites = std::min(
        sites.size() - common_count,
        config.min_favourite_sites +
            rng.uniform_index(config.max_favourite_sites -
                              config.min_favourite_sites + 1));
    std::set<std::size_t> chosen;
    // A share of cluster sites...
    const auto& shared = cluster_sites[static_cast<std::size_t>(profile.cluster)];
    const auto cluster_take = std::min(
        shared.size(), static_cast<std::size_t>(config.cluster_site_fraction *
                                                static_cast<double>(favourites)));
    while (chosen.size() < cluster_take) {
      chosen.insert(shared[rng.uniform_index(shared.size())]);
    }
    // ...topped up with personal picks, biased toward popular sites (the
    // universally common sites at indices < common_count are excluded here
    // and appended at the tail below).
    while (chosen.size() < favourites) {
      const std::size_t pick = site_popularity(rng);
      if (pick >= common_count) chosen.insert(pick);
    }
    profile.site_indices.assign(chosen.begin(), chosen.end());
    rng.shuffle(profile.site_indices);

    // Zipf visit weights over a personal ordering of the favourites.
    profile.site_weights.resize(profile.site_indices.size());
    for (std::size_t i = 0; i < profile.site_weights.size(); ++i) {
      profile.site_weights[i] =
          1.0 / std::pow(static_cast<double>(i + 1), config.site_zipf);
    }
    // Everyone occasionally visits the common sites (search, mail, CDN),
    // with deliberately small weight so shared traffic stays a minor share.
    for (std::size_t c = 0; c < common_count; ++c) {
      profile.site_indices.push_back(c);
      profile.site_weights.push_back(
          config.common_site_weight /
          std::pow(static_cast<double>(favourites + c + 1), config.site_zipf));
    }

    // Adoption schedule: most sites from week 0, a tail adopted later.
    profile.adoption_week.assign(profile.site_indices.size(), 0);
    for (std::size_t i = 0; i < profile.adoption_week.size(); ++i) {
      // Keep the user's top sites available from the start so week-1 models
      // are trainable; only the rarely-visited tail adopts late.
      const bool late = i >= profile.adoption_week.size() / 2 &&
                        rng.bernoulli(config.late_adoption_fraction * 2.0);
      if (late) {
        profile.adoption_week[i] =
            1 + static_cast<int>(rng.uniform_index(
                    static_cast<std::uint64_t>(std::max(1, config.max_adoption_week))));
      }
    }

    // --- temporal habits --------------------------------------------------
    // Zipf-skewed activity: user rank by u (shuffled by id assignment).
    const double rank_weight =
        1.0 / std::pow(static_cast<double>(u + 1), config.activity_zipf);
    const double max_weight = 1.0;
    const double activity =
        config.min_sessions_per_day +
        (config.max_sessions_per_day - config.min_sessions_per_day) *
            (rank_weight / max_weight);
    profile.sessions_per_day = activity;
    profile.mean_session_minutes = rng.uniform(10.0, 45.0);
    profile.mean_page_gap_seconds = rng.uniform(8.0, 35.0);
    profile.work_start_hour = rng.uniform(6.5, 10.0);
    profile.work_end_hour = profile.work_start_hour + rng.uniform(7.0, 10.0);
    profile.weekend_activity = rng.uniform(0.05, 0.5);
    profile.off_hours_activity = rng.uniform(0.02, 0.12);

    users.push_back(std::move(profile));
  }
  return users;
}

}  // namespace wtp::synthetic
