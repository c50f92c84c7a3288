// Behavioural model behind the synthetic enterprise trace.
//
// The paper's benchmark dataset was "generated programmatically" from 36
// synthetic users; this module rebuilds that machinery.  The model is
// site-centric: a global pool of web sites, each with fixed service
// characteristics (category, application type, media types, reputation,
// scheme and action tendencies).  A user is a weighted set of favourite
// sites plus temporal habits (sessions per day, diurnal activity, session
// shape).  This yields the properties the paper measures:
//   * per-user consistency: the favourite-site set is stable, so feature
//     vocabularies saturate quickly (low novelty ratio, Figs. 1-2);
//   * small footprints: ~tens of categories/app-types per user out of
//     hundreds (paper §IV-B);
//   * inter-user similarity clusters: users in the same behaviour cluster
//     share sites, producing the off-diagonal blocks of Tab. V.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "log/transaction.h"
#include "util/rng.h"
#include "util/shared_string.h"

namespace wtp::synthetic {

/// A web site/service with fixed characteristics.  Transactions to a site
/// inherit its category, application type and reputation, and sample media
/// type / HTTP action / scheme from its tendencies.
struct Site {
  util::SharedString url;
  util::SharedString category;
  util::SharedString application_type;
  log::Reputation reputation = log::Reputation::kMinimalRisk;
  double https_probability = 0.5;
  bool is_private = false;            ///< internal-network service
  std::vector<util::SharedString> media_types;
  std::vector<double> media_weights;  ///< same length as media_types
  std::vector<double> action_weights; ///< GET, POST, CONNECT, HEAD
  double resources_per_page = 3.0;    ///< mean extra transactions per page view
};

/// Parameters for building the global site pool.
struct SitePoolConfig {
  std::size_t num_sites = 1200;
  std::size_t num_categories = 105;
  std::size_t num_media_types = 257;
  std::size_t num_application_types = 464;
  double category_zipf = 0.9;     ///< popularity skew of category assignment
  double application_zipf = 0.9;
  double private_site_fraction = 0.04;
  double unverified_fraction = 0.03;
  double risky_fraction = 0.03;   ///< Medium/High risk among verified
};

/// Builds a deterministic site pool (given the rng seed).
[[nodiscard]] std::vector<Site> build_site_pool(const SitePoolConfig& config,
                                                util::Rng& rng);

/// A user's persistent behaviour profile.
struct UserBehaviorProfile {
  util::SharedString user_id;
  int cluster = 0;

  /// Favourite sites (indices into the global pool) with Zipf visit weights.
  std::vector<std::size_t> site_indices;
  std::vector<double> site_weights;

  /// For each favourite site, the week (0-based) at which the user adopts
  /// it; sites are unavailable before their adoption week.  Most sites adopt
  /// at week 0, the tail adopts over time, producing the gradual behaviour
  /// drift the paper's novelty analysis quantifies.
  std::vector<int> adoption_week;

  // Temporal habits.
  double sessions_per_day = 4.0;
  double mean_session_minutes = 25.0;
  double mean_page_gap_seconds = 18.0;
  double work_start_hour = 8.5;   ///< diurnal activity window (UTC hours)
  double work_end_hour = 17.5;
  double weekend_activity = 0.25; ///< weekend multiplier on session rate
  double off_hours_activity = 0.06;
};

/// Parameters for synthesizing user profiles.
struct UserPopulationConfig {
  std::size_t num_users = 36;
  std::size_t num_clusters = 8;
  std::size_t min_favourite_sites = 25;
  std::size_t max_favourite_sites = 55;
  /// Fraction of favourite sites drawn from the user's cluster-shared pool.
  double cluster_site_fraction = 0.35;
  /// Number of universally popular sites everyone visits occasionally.
  std::size_t num_common_sites = 4;
  /// Multiplier on the visit weight of the common sites (they sit at the
  /// tail of each user's preference ranking; a small value keeps shared
  /// traffic a minor part of every window).
  double common_site_weight = 0.15;
  double site_zipf = 1.1;          ///< skew of per-user site visit weights
  /// Sessions/day skew across users; yields the heavy-tailed per-user
  /// transaction counts of the paper's dataset (2.5k .. 4.7M).
  double activity_zipf = 1.2;
  double max_sessions_per_day = 14.0;
  double min_sessions_per_day = 0.6;
  /// Fraction of a user's favourite sites adopted after week 0.
  double late_adoption_fraction = 0.12;
  int max_adoption_week = 12;
};

/// Builds the full user population over a given site pool.  User ids are
/// "user_1" .. "user_N".  Deterministic given the rng seed.
[[nodiscard]] std::vector<UserBehaviorProfile> build_user_population(
    const UserPopulationConfig& config, const std::vector<Site>& sites,
    util::Rng& rng);

}  // namespace wtp::synthetic
