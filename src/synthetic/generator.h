// End-to-end synthetic trace generation: site pool + user population +
// device topology -> a time-sorted stream of augmented web transactions in
// the proxy-log schema, covering a configurable number of weeks.
//
// This is the reproduction substitute for the paper's proprietary benchmark
// dataset (6 months, 9.45M transactions, 36 users, 35 devices); see
// DESIGN.md §2 for the substitution argument.
#pragma once

#include <cstdint>
#include <vector>

#include "log/transaction.h"
#include "synthetic/enterprise.h"
#include "synthetic/profile.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace wtp::synthetic {

struct GeneratorConfig {
  std::uint64_t seed = 42;
  /// Trace span.  The paper's dataset covers ~26 weeks (6 months).
  int duration_weeks = 26;
  /// Monday 2015-01-05 00:00:00 UTC; weeks then align with calendar weeks.
  util::UnixSeconds start_time = 1420416000;
  /// Global multiplier on every user's session rate; raises/lowers total
  /// transaction volume without changing behaviour structure.
  double activity_scale = 1.0;

  SitePoolConfig site_pool;
  UserPopulationConfig population;
  EnterpriseConfig enterprise;
};

/// A fully generated enterprise trace plus the ground-truth models that
/// produced it (useful to tests and to the identification experiment, which
/// needs to know which user truly held a device at a given time).
struct EnterpriseTrace {
  GeneratorConfig config;
  std::vector<Site> sites;
  std::vector<UserBehaviorProfile> users;
  DeviceTopology topology;
  /// All transactions of all users, sorted by (timestamp, user_id).
  std::vector<log::WebTransaction> transactions;
};

/// Generates the full trace.  Deterministic: equal configs (including seed)
/// produce identical traces, whatever the pool's thread count.  The master
/// seed's first three forks build the site, user and device pools; the next
/// ones, in user order, are the users' own streams.  The rows then come from
/// three passes on `pool`:
///
///  1. each user's day and session loop runs once with a counting sink,
///     which sizes the user's slice of one exactly sized draft array;
///  2. the loop runs again from the same stream, writing 16-byte drafts
///     (a key `(timestamp - start_time) << 32 | user-id rank`, then site,
///     device, media, action and https) straight into the slice;
///  3. std::sort orders the drafts on the key alone, and the rows are
///     materialized in parallel chunks into `transactions`.
///
/// The drafts enter the sort in user-major emission order, as the rows of a
/// serial loop would, and every key comparison answers as the (timestamp,
/// user_id) comparison of the rows does, so std::sort applies the same
/// permutation: the rows are those of the serial loop, in its order
/// (tests/synthetic/trace_reference.h is that loop).  The order of rows
/// that tie on (timestamp, user_id) follows the standard library's
/// std::sort, so it may differ between standard library implementations.
///
/// The trace builds one util::SharedString per site field, user id and
/// device id value, and every row copies those handles, so rows holding one
/// value share its buffer.
///
/// Throws std::invalid_argument, before any draft or row is made, on a
/// non-positive span or activity scale, a population and topology of
/// different sizes, and whatever a draft's fields cannot hold: more than
/// 65,535 devices, more than 255 media types at one site, or a timestamp
/// 2^32 s or more past start_time.  A task's exception is caught and
/// rethrown once its pass has finished.
[[nodiscard]] EnterpriseTrace generate_trace(const GeneratorConfig& config,
                                             util::ThreadPool& pool);

/// As above, on a pool of the host's hardware concurrency built for the call.
[[nodiscard]] EnterpriseTrace generate_trace(const GeneratorConfig& config);

/// The row stage of generate_trace on its own: replaces trace.transactions
/// with the rows generate_trace emits for trace.config and the trace's
/// sites, users and topology, drawing each user's stream from config.seed as
/// generate_trace does.  Refuses what generate_trace refuses, checked on
/// these pools.
void generate_transactions(EnterpriseTrace& trace, util::ThreadPool& pool);

/// Session-level generation interface, exposed for the identification
/// experiment (Fig. 3) which scripts an explicit device-usage timeline.
/// Its rows share the trace's handles too.
struct SessionSpec {
  std::size_t user_index = 0;
  std::size_t device_index = 0;
  util::UnixSeconds start = 0;
  double duration_minutes = 20.0;
};

/// Generates the transactions of one scripted session for `spec.user_index`
/// on `spec.device_index`, through the same emitter as generate_trace, and
/// appends them to `out` in emission order: page view by page view, each
/// page followed by its resource burst.  That order is not time order: a
/// page view's resources can run past the next page view's start, and on a
/// two-week trace most twenty-minute sessions have rows out of order.
/// Every caller (the Fig. 3 and Fig. 5 benches, the continuous_auth and
/// intrusion_monitor examples) sorts the rows afterwards.  The week of
/// `spec.start` (counted from trace.config.start_time) gates site adoption.
void generate_session(const EnterpriseTrace& trace, const SessionSpec& spec,
                      util::Rng& rng, std::vector<log::WebTransaction>& out);

}  // namespace wtp::synthetic
