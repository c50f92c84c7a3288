#include "synthetic/generator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <exception>
#include <latch>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
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

/// One transaction as the emitter samples it, before a sink counts it,
/// packs it into a draft or builds its row.
struct Emitted {
  util::UnixSeconds timestamp = 0;
  std::size_t device = 0;
  std::size_t site = 0;
  std::size_t media = 0;
  log::HttpAction action = log::HttpAction::kGet;
  bool https = false;
};

/// Emits the 1 + resources transactions of a single page view.
template <typename Sink>
void emit_page_view(const EnterpriseTrace& trace, std::size_t device_index,
                    std::size_t site_index, util::UnixSeconds when, util::Rng& rng,
                    Sink& sink) {
  const Site& site = trace.sites[site_index];
  const bool https = rng.bernoulli(site.https_probability);

  const std::uint64_t resources = rng.poisson(site.resources_per_page);
  util::UnixSeconds ts = when;
  for (std::uint64_t r = 0; r <= resources; ++r) {
    Emitted txn;
    txn.timestamp = ts;
    txn.device = device_index;
    txn.site = site_index;
    txn.https = https;
    // The first transaction of a page view fetches the page itself; follow-up
    // resource fetches are GETs (or CONNECT tunnels under HTTPS).
    if (r == 0) {
      txn.action = sample_action(site, rng);
    } else {
      txn.action = https && rng.bernoulli(0.2) ? log::HttpAction::kConnect
                                               : log::HttpAction::kGet;
    }
    txn.media = rng.weighted_index(site.media_weights);
    sink(txn);
    // Resources arrive in a sub-second to few-second burst.
    ts += static_cast<util::UnixSeconds>(rng.exponential(1.5));
  }
}

/// Emits one session's page views in page-view order.
template <typename Sink>
void emit_session(const EnterpriseTrace& trace, const SessionSpec& spec,
                  util::Rng& rng, Sink& sink) {
  const auto& user = trace.users.at(spec.user_index);
  const auto session_end = spec.start + static_cast<util::UnixSeconds>(
                                            spec.duration_minutes * 60.0);
  const int week = static_cast<int>((spec.start - trace.config.start_time) /
                                    util::kSecondsPerWeek);
  util::UnixSeconds now = spec.start;
  while (now < session_end) {
    const std::size_t site = pick_site(trace, spec.user_index, week, rng);
    emit_page_view(trace, spec.device_index, site, now, rng, sink);
    now += 1 + static_cast<util::UnixSeconds>(
                   rng.exponential(1.0 / user.mean_page_gap_seconds));
  }
}

/// Emits every session of user `u` over the trace's days, drawing from a
/// copy of the user's own stream, so every pass replays the same draws.
template <typename Sink>
void emit_user(const EnterpriseTrace& trace, std::size_t u, util::Rng rng,
               Sink& sink) {
  const GeneratorConfig& config = trace.config;
  const auto& user = trace.users[u];
  const int days = config.duration_weeks * 7;
  for (int day = 0; day < days; ++day) {
    const util::UnixSeconds day_start =
        config.start_time + static_cast<util::UnixSeconds>(day) * util::kSecondsPerDay;
    // Expected sessions today, modulated by the weekday/weekend pattern.
    const int dow = util::day_of_week(day_start);
    const double day_rate = user.sessions_per_day * config.activity_scale *
                            (dow >= 5 ? user.weekend_activity : 1.0);
    const std::uint64_t sessions = rng.poisson(day_rate);
    for (std::uint64_t s = 0; s < sessions; ++s) {
      SessionSpec spec;
      spec.user_index = u;
      spec.device_index = trace.topology.sample_device(u, rng);
      spec.start = sample_session_start(user, day_start, rng);
      spec.duration_minutes =
          std::max(1.0, rng.normal(user.mean_session_minutes,
                                   user.mean_session_minutes * 0.4));
      emit_session(trace, spec, rng, sink);
    }
  }
}

/// The row of one emitted transaction, built from copies of the trace's
/// handles.
log::WebTransaction make_row(const EnterpriseTrace& trace, std::size_t user,
                             const Emitted& txn) {
  const Site& site = trace.sites[txn.site];
  return log::WebTransaction{
      .timestamp = txn.timestamp,
      .url = site.url,
      .scheme = txn.https ? log::UriScheme::kHttps : log::UriScheme::kHttp,
      .action = txn.action,
      .user_id = trace.users[user].user_id,
      .device_id = trace.topology.device_ids[txn.device],
      .category = site.category,
      .media_type = site.media_types[txn.media],
      .application_type = site.application_type,
      .reputation = site.reputation,
      .private_destination = site.is_private,
  };
}

/// One generated transaction before its row exists, in 16 bytes.  The key
/// sorts as (timestamp, user_id) does; the rest indexes the trace's devices
/// and sites.  generate_transactions refuses a trace whose devices, media
/// types or time span would not fit these fields.
struct Draft {
  std::uint64_t key;  ///< (timestamp - start_time) << 32 | user-id rank
  std::uint32_t site;
  std::uint16_t device;
  std::uint8_t media;
  std::uint8_t action_https;  ///< action << 1 | https
};
static_assert(sizeof(Draft) == 16);

/// A draft's time offset from start_time is 32 bits.
constexpr util::UnixSeconds kMaxTimeOffset = util::UnixSeconds{1} << 32;

/// Counts a user's transactions and their latest timestamp.
struct CountSink {
  std::size_t count = 0;
  util::UnixSeconds latest = std::numeric_limits<util::UnixSeconds>::min();
  void operator()(const Emitted& txn) {
    ++count;
    latest = std::max(latest, txn.timestamp);
  }
};

/// Packs a user's transactions into consecutive drafts.
struct DraftSink {
  Draft* next;
  util::UnixSeconds start_time;
  std::uint64_t rank;
  void operator()(const Emitted& txn) {
    *next++ = Draft{
        .key = static_cast<std::uint64_t>(txn.timestamp - start_time) << 32 | rank,
        .site = static_cast<std::uint32_t>(txn.site),
        .device = static_cast<std::uint16_t>(txn.device),
        .media = static_cast<std::uint8_t>(txn.media),
        .action_https = static_cast<std::uint8_t>(
            static_cast<unsigned>(txn.action) << 1 | (txn.https ? 1U : 0U)),
    };
  }
};

/// Builds each transaction's row onto the end of a vector.
struct RowSink {
  const EnterpriseTrace& trace;
  std::size_t user;
  std::vector<log::WebTransaction>& out;
  void operator()(const Emitted& txn) { out.push_back(make_row(trace, user, txn)); }
};

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

/// Runs fn(i) for every i in [0, count) on the pool, each worker taking the
/// next index as it frees up: users differ several-fold in volume, and
/// util::parallel_for's fixed shards of consecutive users left threads idle
/// (generation 13% slower at the ledger's shape).  A task catches what fn
/// throws, since an exception escaping a pool task terminates; the first one
/// is rethrown once every task has finished.  A per-call latch waits for
/// these tasks only, so callers sharing one pool do not wait on each other's
/// tasks.
template <typename Fn>
void parallel_each(util::ThreadPool& pool, std::size_t count, const Fn& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const std::size_t tasks = std::min(count, pool.thread_count());
  std::latch done{static_cast<std::ptrdiff_t>(tasks)};
  for (std::size_t w = 0; w < tasks; ++w) {
    pool.submit([&] {
      for (std::size_t i; (i = next++) < count;) {
        try {
          fn(i);
        } catch (...) {
          const std::lock_guard lock{error_mutex};
          if (!error) error = std::current_exception();
        }
      }
      done.count_down();
    });
  }
  done.wait();
  if (error) std::rethrow_exception(error);
}

/// Refuses a trace that generation cannot run on, before anything is
/// emitted: a bad span or rate, a population the topology does not cover,
/// or pools too large for a draft's fields.
void check_generatable(const EnterpriseTrace& trace) {
  const GeneratorConfig& config = trace.config;
  if (config.duration_weeks <= 0) {
    throw std::invalid_argument{"generate_trace: duration_weeks must be > 0"};
  }
  if (config.duration_weeks > kMaxTimeOffset / util::kSecondsPerWeek) {
    throw std::invalid_argument{
        "generate_trace: duration_weeks must keep every session start less "
        "than 2^32 s after start_time (a draft's time offset is 32 bits)"};
  }
  if (config.activity_scale <= 0.0) {
    throw std::invalid_argument{"generate_trace: activity_scale must be > 0"};
  }
  if (trace.users.size() != trace.topology.user_devices.size()) {
    throw std::invalid_argument{
        "generate_trace: population.num_users must equal enterprise.num_users"};
  }
  if (trace.topology.device_ids.size() > std::numeric_limits<std::uint16_t>::max()) {
    throw std::invalid_argument{
        "generate_trace: enterprise.num_devices must be at most 65535 (a "
        "draft's device index is 16 bits)"};
  }
  for (const Site& site : trace.sites) {
    if (site.media_types.size() > std::numeric_limits<std::uint8_t>::max()) {
      throw std::invalid_argument{
          "generate_trace: site " + std::string{site.url.view()} + " has " +
          std::to_string(site.media_types.size()) +
          " media types; a draft's media index holds at most 255"};
    }
  }
}

}  // namespace

void generate_session(const EnterpriseTrace& trace, const SessionSpec& spec,
                      util::Rng& rng, std::vector<log::WebTransaction>& out) {
  RowSink sink{trace, spec.user_index, out};
  emit_session(trace, spec, rng, sink);
}

void generate_transactions(EnterpriseTrace& trace, util::ThreadPool& pool) {
  check_generatable(trace);
  const GeneratorConfig& config = trace.config;
  const std::size_t users = trace.users.size();

  // generate_trace's master stream: its first three forks built the pools,
  // the next ones, in user order, are the users' streams.
  util::Rng master{config.seed};
  for (int pool_stream = 0; pool_stream < 3; ++pool_stream) (void)master.fork();
  std::vector<util::Rng> streams;
  streams.reserve(users);
  for (std::size_t u = 0; u < users; ++u) streams.push_back(master.fork());

  // Pass 1: size every user's slice of the draft array.
  std::vector<CountSink> counts(users);
  parallel_each(pool, users, [&](std::size_t u) {
    emit_user(trace, u, streams[u], counts[u]);
  });
  std::vector<std::size_t> offsets(users + 1, 0);
  for (std::size_t u = 0; u < users; ++u) {
    if (counts[u].count > 0 && counts[u].latest - config.start_time >= kMaxTimeOffset) {
      throw std::invalid_argument{
          "generate_trace: a session runs 2^32 s or more past start_time (a "
          "draft's time offset is 32 bits)"};
    }
    offsets[u + 1] = offsets[u] + counts[u].count;
  }

  // Pass 2: replay each user's stream into its slice, user-major as the
  // transactions were always emitted.
  const std::vector<std::uint32_t> rank = user_id_ranks(trace.users);
  const std::size_t total = offsets.back();
  // Left unwritten here: pass 2 writes every draft, each thread its slice.
  const auto drafts = std::make_unique_for_overwrite<Draft[]>(total);
  parallel_each(pool, users, [&](std::size_t u) {
    DraftSink sink{drafts.get() + offsets[u], config.start_time, rank[u]};
    emit_user(trace, u, streams[u], sink);
  });

  // Pass 3: sort on the key alone, then build the rows.  The input order is
  // the user-major emission order and every key comparison answers as the
  // (timestamp, user_id) comparison of the rows would, so std::sort applies
  // the permutation it would apply to the rows themselves.  The row vector
  // is zeroed meanwhile on another thread.
  std::vector<log::WebTransaction> rows;
  parallel_each(pool, 2, [&](std::size_t task) {
    if (task == 0) {
      std::sort(drafts.get(), drafts.get() + total,
                [](const Draft& a, const Draft& b) { return a.key < b.key; });
    } else {
      rows = std::vector<log::WebTransaction>(total);
    }
  });
  // Users that share an id share a rank; their rows take the first such
  // user's handle, which holds the same value.
  std::vector<std::size_t> user_of_rank(users);
  for (std::size_t u = users; u-- > 0;) user_of_rank[rank[u]] = u;

  constexpr std::size_t kChunk = 16384;
  parallel_each(pool, (total + kChunk - 1) / kChunk, [&](std::size_t chunk) {
    const std::size_t end = std::min(total, (chunk + 1) * kChunk);
    for (std::size_t i = chunk * kChunk; i < end; ++i) {
      const Draft& draft = drafts[i];
      rows[i] = make_row(
          trace, user_of_rank[draft.key & 0xffffffffU],
          Emitted{
              .timestamp = config.start_time +
                           static_cast<util::UnixSeconds>(draft.key >> 32),
              .device = draft.device,
              .site = draft.site,
              .media = draft.media,
              .action = static_cast<log::HttpAction>(draft.action_https >> 1),
              .https = (draft.action_https & 1U) != 0,
          });
    }
  });
  trace.transactions = std::move(rows);
}

EnterpriseTrace generate_trace(const GeneratorConfig& config, util::ThreadPool& pool) {
  EnterpriseTrace trace;
  trace.config = config;

  util::Rng master{config.seed};
  util::Rng pool_rng = master.fork();
  util::Rng population_rng = master.fork();
  util::Rng topology_rng = master.fork();

  trace.sites = build_site_pool(config.site_pool, pool_rng);
  trace.users = build_user_population(config.population, trace.sites, population_rng);
  trace.topology = build_device_topology(config.enterprise, topology_rng);
  generate_transactions(trace, pool);
  return trace;
}

EnterpriseTrace generate_trace(const GeneratorConfig& config) {
  util::ThreadPool pool;
  return generate_trace(config, pool);
}

}  // namespace wtp::synthetic
