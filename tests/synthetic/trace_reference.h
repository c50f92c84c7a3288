// Serial oracle for synthetic::generate_trace, shared by the generator
// tests and bench/training_throughput's trace check.
//
// It shares only the session emitter (generate_session) and the pool
// builders with the generator.  It forks the users' streams in user order,
// walks each user's days with its own copy of the day loop, appends every
// session's rows through generate_session, and sorts all rows by
// (timestamp, user_id) with string comparisons.  A fault in the generator's
// passes, draft packing, key sort or materialization shows as a difference.
#pragma once

#include <algorithm>
#include <cstdint>

#include "synthetic/generator.h"
#include "util/rng.h"
#include "util/time.h"

namespace wtp::synthetic::testing {

/// A session start in [day_start, day_start + 1 day), by rejection against
/// the user's diurnal profile.
inline util::UnixSeconds reference_session_start(const UserBehaviorProfile& user,
                                                 util::UnixSeconds day_start,
                                                 util::Rng& rng) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto candidate =
        day_start + static_cast<util::UnixSeconds>(
                        rng.uniform() * static_cast<double>(util::kSecondsPerDay));
    const double hour = util::fractional_hour(candidate);
    double rate = hour >= user.work_start_hour && hour < user.work_end_hour
                      ? 1.0
                      : user.off_hours_activity;
    if (util::day_of_week(candidate) >= 5) rate *= user.weekend_activity;
    if (rng.uniform() < rate) return candidate;
  }
  return day_start + static_cast<util::UnixSeconds>(
                         (user.work_start_hour + user.work_end_hour) * 0.5 *
                         util::kSecondsPerHour);
}

/// The trace generate_trace(config) produces, built serially.
inline EnterpriseTrace reference_trace(const GeneratorConfig& config) {
  EnterpriseTrace trace;
  trace.config = config;
  util::Rng master{config.seed};
  util::Rng pool_rng = master.fork();
  util::Rng population_rng = master.fork();
  util::Rng topology_rng = master.fork();
  trace.sites = build_site_pool(config.site_pool, pool_rng);
  trace.users = build_user_population(config.population, trace.sites, population_rng);
  trace.topology = build_device_topology(config.enterprise, topology_rng);

  for (std::size_t u = 0; u < trace.users.size(); ++u) {
    util::Rng rng = master.fork();
    const UserBehaviorProfile& user = trace.users[u];
    for (int day = 0; day < config.duration_weeks * 7; ++day) {
      const util::UnixSeconds day_start =
          config.start_time + static_cast<util::UnixSeconds>(day) * util::kSecondsPerDay;
      const double rate = user.sessions_per_day * config.activity_scale *
                          (util::day_of_week(day_start) >= 5 ? user.weekend_activity : 1.0);
      const std::uint64_t sessions = rng.poisson(rate);
      for (std::uint64_t s = 0; s < sessions; ++s) {
        SessionSpec spec;
        spec.user_index = u;
        spec.device_index = trace.topology.sample_device(u, rng);
        spec.start = reference_session_start(user, day_start, rng);
        spec.duration_minutes = std::max(
            1.0, rng.normal(user.mean_session_minutes, user.mean_session_minutes * 0.4));
        generate_session(trace, spec, rng, trace.transactions);
      }
    }
  }
  std::sort(trace.transactions.begin(), trace.transactions.end(),
            [](const log::WebTransaction& a, const log::WebTransaction& b) {
              if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
              return a.user_id < b.user_id;
            });
  return trace;
}

}  // namespace wtp::synthetic::testing
