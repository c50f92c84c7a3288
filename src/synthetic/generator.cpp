#include "synthetic/generator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string_view>

namespace wtp::synthetic {

namespace {

/// Relative session intensity for a user at a given time: high inside the
/// user's work window on weekdays, damped on weekends and off hours.
double diurnal_multiplier(const UserBehaviorProfile& user, util::UnixSeconds ts) {
  const double hour = util::fractional_hour(ts);
  const int dow = util::day_of_week(ts);  // 0 = Monday
  const bool weekend = dow >= 5;
  const bool working_hours = hour >= user.work_start_hour && hour < user.work_end_hour;
  double multiplier = working_hours ? 1.0 : user.off_hours_activity;
  if (weekend) multiplier *= user.weekend_activity;
  return multiplier;
}

/// Samples a session start second within [day_start, day_start + 1 day) by
/// rejection against the diurnal profile.
util::UnixSeconds sample_session_start(const UserBehaviorProfile& user,
                                       util::UnixSeconds day_start,
                                       util::Rng& rng) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto offset = static_cast<util::UnixSeconds>(
        rng.uniform() * static_cast<double>(util::kSecondsPerDay));
    const util::UnixSeconds candidate = day_start + offset;
    if (rng.uniform() < diurnal_multiplier(user, candidate)) return candidate;
  }
  // Extremely inactive profile: fall back to the middle of the work window.
  const auto work_mid = static_cast<util::UnixSeconds>(
      (user.work_start_hour + user.work_end_hour) * 0.5 * util::kSecondsPerHour);
  return day_start + work_mid;
}

/// Picks one of the user's favourite sites that has been adopted by
/// `current_week`.  Returns the site index into the global pool, or the
/// user's top site if nothing has been adopted yet (week 0 always has
/// adopted sites by construction).
std::size_t pick_site(const EnterpriseTrace& trace, std::size_t user_index,
                      int current_week, util::Rng& rng) {
  const auto& user = trace.users[user_index];
  for (int attempt = 0; attempt < 32; ++attempt) {
    const std::size_t pick = rng.weighted_index(user.site_weights);
    if (user.adoption_week[pick] <= current_week) return user.site_indices[pick];
  }
  // Fall back to the first adopted favourite.
  for (std::size_t i = 0; i < user.site_indices.size(); ++i) {
    if (user.adoption_week[i] <= current_week) return user.site_indices[i];
  }
  return user.site_indices.front();
}

log::HttpAction sample_action(const Site& site, util::Rng& rng) {
  switch (rng.weighted_index(site.action_weights)) {
    case 0: return log::HttpAction::kGet;
    case 1: return log::HttpAction::kPost;
    case 2: return log::HttpAction::kConnect;
    default: return log::HttpAction::kHead;
  }
}

/// One generated transaction before its row exists: indices into the
/// trace's users, devices and sites plus the sampled per-transaction fields.
/// Sessions emit these 32-byte records; generate_trace sorts them and only
/// then builds each WebTransaction, once, from copies of the trace's string
/// handles.
struct Draft {
  util::UnixSeconds timestamp = 0;
  std::uint32_t user = 0;
  std::uint32_t device = 0;
  std::uint32_t site = 0;
  std::uint32_t media = 0;
  log::HttpAction action = log::HttpAction::kGet;
  bool https = false;
};

log::WebTransaction materialize(const EnterpriseTrace& trace, const Draft& draft) {
  const Site& site = trace.sites[draft.site];
  return log::WebTransaction{
      .timestamp = draft.timestamp,
      .url = site.url,
      .scheme = draft.https ? log::UriScheme::kHttps : log::UriScheme::kHttp,
      .action = draft.action,
      .user_id = trace.users[draft.user].user_id,
      .device_id = trace.topology.device_ids[draft.device],
      .category = site.category,
      .media_type = site.media_types[draft.media],
      .application_type = site.application_type,
      .reputation = site.reputation,
      .private_destination = site.is_private,
  };
}

/// Emits the 1 + resources transactions of a single page view.
void emit_page_view(const EnterpriseTrace& trace, std::size_t user_index,
                    std::size_t device_index, std::size_t site_index,
                    util::UnixSeconds when, util::Rng& rng,
                    std::vector<Draft>& out) {
  const Site& site = trace.sites[site_index];
  const bool https = rng.bernoulli(site.https_probability);

  const std::uint64_t resources = rng.poisson(site.resources_per_page);
  util::UnixSeconds ts = when;
  for (std::uint64_t r = 0; r <= resources; ++r) {
    Draft draft;
    draft.timestamp = ts;
    draft.user = static_cast<std::uint32_t>(user_index);
    draft.device = static_cast<std::uint32_t>(device_index);
    draft.site = static_cast<std::uint32_t>(site_index);
    draft.https = https;
    // The first transaction of a page view fetches the page itself; follow-up
    // resource fetches are GETs (or CONNECT tunnels under HTTPS).
    if (r == 0) {
      draft.action = sample_action(site, rng);
    } else {
      draft.action = https && rng.bernoulli(0.2) ? log::HttpAction::kConnect
                                                 : log::HttpAction::kGet;
    }
    draft.media = static_cast<std::uint32_t>(rng.weighted_index(site.media_weights));
    out.push_back(draft);
    // Resources arrive in a sub-second to few-second burst.
    ts += static_cast<util::UnixSeconds>(rng.exponential(1.5));
  }
}

/// Emits one session's page views as drafts, time-ordered.
void emit_session(const EnterpriseTrace& trace, const SessionSpec& spec,
                  util::Rng& rng, std::vector<Draft>& out) {
  const auto& user = trace.users.at(spec.user_index);
  const auto session_end = spec.start + static_cast<util::UnixSeconds>(
                                            spec.duration_minutes * 60.0);
  const int week = static_cast<int>((spec.start - trace.config.start_time) /
                                    util::kSecondsPerWeek);
  util::UnixSeconds now = spec.start;
  while (now < session_end) {
    const std::size_t site = pick_site(trace, spec.user_index, week, rng);
    emit_page_view(trace, spec.user_index, spec.device_index, site, now, rng, out);
    now += 1 + static_cast<util::UnixSeconds>(
                   rng.exponential(1.0 / user.mean_page_gap_seconds));
  }
}

/// Dense rank of each user's id in lexicographic order (equal ids share a
/// rank), so drafts sort by (timestamp, user_id) without string compares.
std::vector<std::uint32_t> user_id_ranks(
    const std::vector<UserBehaviorProfile>& users) {
  std::vector<std::string_view> ids;
  for (const auto& user : users) ids.push_back(user.user_id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<std::uint32_t> rank;
  for (const auto& user : users) {
    rank.push_back(static_cast<std::uint32_t>(
        std::lower_bound(ids.begin(), ids.end(), user.user_id) - ids.begin()));
  }
  return rank;
}

}  // namespace

void generate_session(const EnterpriseTrace& trace, const SessionSpec& spec,
                      util::Rng& rng, std::vector<log::WebTransaction>& out) {
  std::vector<Draft> drafts;
  emit_session(trace, spec, rng, drafts);
  for (const Draft& draft : drafts) out.push_back(materialize(trace, draft));
}

EnterpriseTrace generate_trace(const GeneratorConfig& config) {
  if (config.duration_weeks <= 0) {
    throw std::invalid_argument{"generate_trace: duration_weeks must be > 0"};
  }
  if (config.activity_scale <= 0.0) {
    throw std::invalid_argument{"generate_trace: activity_scale must be > 0"};
  }
  EnterpriseTrace trace;
  trace.config = config;

  util::Rng master{config.seed};
  util::Rng pool_rng = master.fork();
  util::Rng population_rng = master.fork();
  util::Rng topology_rng = master.fork();

  trace.sites = build_site_pool(config.site_pool, pool_rng);
  trace.users = build_user_population(config.population, trace.sites, population_rng);
  trace.topology = build_device_topology(config.enterprise, topology_rng);
  if (trace.users.size() != trace.topology.user_devices.size()) {
    throw std::invalid_argument{
        "generate_trace: population.num_users must equal enterprise.num_users"};
  }

  const int days = config.duration_weeks * 7;
  std::vector<Draft> drafts;
  for (std::size_t u = 0; u < trace.users.size(); ++u) {
    util::Rng user_rng = master.fork();
    const auto& user = trace.users[u];
    for (int day = 0; day < days; ++day) {
      const util::UnixSeconds day_start =
          config.start_time + static_cast<util::UnixSeconds>(day) * util::kSecondsPerDay;
      // Expected sessions today, modulated by the weekday/weekend pattern.
      const int dow = util::day_of_week(day_start);
      const double day_rate = user.sessions_per_day * config.activity_scale *
                              (dow >= 5 ? user.weekend_activity : 1.0);
      const std::uint64_t sessions = user_rng.poisson(day_rate);
      for (std::uint64_t s = 0; s < sessions; ++s) {
        SessionSpec spec;
        spec.user_index = u;
        spec.device_index = trace.topology.sample_device(u, user_rng);
        spec.start = sample_session_start(user, day_start, user_rng);
        spec.duration_minutes =
            std::max(1.0, user_rng.normal(user.mean_session_minutes,
                                          user.mean_session_minutes * 0.4));
        emit_session(trace, spec, user_rng, drafts);
      }
    }
  }

  // The same (timestamp, user_id) order the transactions themselves would
  // sort into: every comparison answers alike, so std::sort applies the same
  // permutation to the drafts.
  const std::vector<std::uint32_t> rank = user_id_ranks(trace.users);
  std::sort(drafts.begin(), drafts.end(), [&rank](const Draft& a, const Draft& b) {
    if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
    return rank[a.user] < rank[b.user];
  });
  trace.transactions.reserve(drafts.size());
  for (const Draft& draft : drafts) {
    trace.transactions.push_back(materialize(trace, draft));
  }
  return trace;
}

}  // namespace wtp::synthetic
