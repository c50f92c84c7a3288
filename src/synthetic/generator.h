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
/// produce identical traces.  Sessions emit compact draft records (indices
/// into the trace's users, devices and sites), which are sorted by
/// (timestamp, user_id) and only then materialized, once each, into
/// `transactions`.  The trace builds one util::SharedString per site field,
/// user id and device id value, and every row copies those handles, so rows
/// holding one value share its buffer.  The order of rows that tie on (timestamp, user_id)
/// follows the standard library's std::sort, so it may differ between
/// standard library implementations.
[[nodiscard]] EnterpriseTrace generate_trace(const GeneratorConfig& config);

/// Session-level generation interface, exposed for the identification
/// experiment (Fig. 3) which scripts an explicit device-usage timeline.
/// Its rows share the trace's handles too.
struct SessionSpec {
  std::size_t user_index = 0;
  std::size_t device_index = 0;
  util::UnixSeconds start = 0;
  double duration_minutes = 20.0;
};

/// Generates the transactions of one scripted session for `user` on
/// `device`, through the same draft emitter as generate_trace.  Appends to
/// `out`; transactions are time-ordered within the session.  `current_week`
/// gates site adoption.
void generate_session(const EnterpriseTrace& trace, const SessionSpec& spec,
                      util::Rng& rng, std::vector<log::WebTransaction>& out);

}  // namespace wtp::synthetic
