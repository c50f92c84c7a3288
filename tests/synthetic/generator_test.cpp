#include "synthetic/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "synthetic/pools.h"
#include "synthetic/trace_reference.h"
#include "util/thread_pool.h"

namespace wtp::synthetic {
namespace {

GeneratorConfig tiny_config() {
  GeneratorConfig config;
  config.seed = 11;
  config.duration_weeks = 2;
  config.activity_scale = 0.3;
  config.site_pool.num_sites = 150;
  config.site_pool.num_categories = 25;
  config.site_pool.num_media_types = 30;
  config.site_pool.num_application_types = 40;
  config.population.num_users = 8;
  config.population.num_clusters = 2;
  config.population.min_favourite_sites = 10;
  config.population.max_favourite_sites = 20;
  config.enterprise.num_users = 8;
  config.enterprise.num_devices = 6;
  return config;
}

TEST(TraceGenerator, ProducesNonEmptySortedTrace) {
  const EnterpriseTrace trace = generate_trace(tiny_config());
  ASSERT_FALSE(trace.transactions.empty());
  for (std::size_t i = 1; i < trace.transactions.size(); ++i) {
    ASSERT_LE(trace.transactions[i - 1].timestamp, trace.transactions[i].timestamp);
  }
}

TEST(TraceGenerator, IsDeterministic) {
  const EnterpriseTrace a = generate_trace(tiny_config());
  const EnterpriseTrace b = generate_trace(tiny_config());
  ASSERT_EQ(a.transactions.size(), b.transactions.size());
  for (std::size_t i = 0; i < a.transactions.size(); ++i) {
    ASSERT_EQ(a.transactions[i], b.transactions[i]);
  }
}

TEST(TraceGenerator, DifferentSeedsDiffer) {
  auto config = tiny_config();
  const EnterpriseTrace a = generate_trace(config);
  config.seed = 12;
  const EnterpriseTrace b = generate_trace(config);
  EXPECT_NE(a.transactions.size(), b.transactions.size());
}

TEST(TraceGenerator, TimestampsInsideConfiguredSpan) {
  const auto config = tiny_config();
  const EnterpriseTrace trace = generate_trace(config);
  const util::UnixSeconds end =
      config.start_time + config.duration_weeks * util::kSecondsPerWeek;
  for (const auto& txn : trace.transactions) {
    ASSERT_GE(txn.timestamp, config.start_time);
    // Sessions started near the end of the span may spill slightly past it.
    ASSERT_LT(txn.timestamp, end + 4 * util::kSecondsPerHour);
  }
}

TEST(TraceGenerator, AllActiveUsersAppear) {
  const EnterpriseTrace trace = generate_trace(tiny_config());
  std::set<std::string> users;
  for (const auto& txn : trace.transactions) users.insert(txn.user_id);
  // With 2 weeks of activity every user should produce at least one session.
  EXPECT_EQ(users.size(), 8u);
}

TEST(TraceGenerator, DevicesMatchTopologyAssignment) {
  const EnterpriseTrace trace = generate_trace(tiny_config());
  // Map device ids back to indices.
  std::map<std::string, std::size_t> device_index;
  for (std::size_t d = 0; d < trace.topology.device_ids.size(); ++d) {
    device_index[trace.topology.device_ids[d]] = d;
  }
  std::map<std::string, std::size_t> user_index;
  for (std::size_t u = 0; u < trace.users.size(); ++u) {
    user_index[trace.users[u].user_id] = u;
  }
  for (const auto& txn : trace.transactions) {
    const std::size_t u = user_index.at(txn.user_id);
    const std::size_t d = device_index.at(txn.device_id);
    const auto& devices = trace.topology.user_devices[u];
    ASSERT_NE(std::find(devices.begin(), devices.end(), d), devices.end())
        << txn.user_id << " used unassigned " << txn.device_id;
  }
}

TEST(TraceGenerator, TransactionFieldsComeFromSitePool) {
  const EnterpriseTrace trace = generate_trace(tiny_config());
  std::map<std::string, const Site*> sites_by_url;
  for (const auto& site : trace.sites) sites_by_url[site.url] = &site;
  for (const auto& txn : trace.transactions) {
    const auto it = sites_by_url.find(txn.url);
    ASSERT_NE(it, sites_by_url.end()) << txn.url;
    const Site& site = *it->second;
    ASSERT_EQ(txn.category, site.category);
    ASSERT_EQ(txn.application_type, site.application_type);
    ASSERT_EQ(txn.reputation, site.reputation);
    ASSERT_EQ(txn.private_destination, site.is_private);
    ASSERT_NE(std::find(site.media_types.begin(), site.media_types.end(),
                        txn.media_type),
              site.media_types.end());
  }
}

TEST(TraceGenerator, ActivityScaleScalesVolume) {
  auto config = tiny_config();
  config.activity_scale = 0.2;
  const std::size_t low = generate_trace(config).transactions.size();
  config.activity_scale = 0.8;
  const std::size_t high = generate_trace(config).transactions.size();
  EXPECT_GT(high, low * 2);
}

TEST(TraceGenerator, WeekendsAreQuieterThanWeekdays) {
  auto config = tiny_config();
  config.duration_weeks = 4;
  const EnterpriseTrace trace = generate_trace(config);
  std::size_t weekday = 0;
  std::size_t weekend = 0;
  for (const auto& txn : trace.transactions) {
    (util::day_of_week(txn.timestamp) >= 5 ? weekend : weekday) += 1;
  }
  // 5 weekdays vs 2 weekend days, plus the weekend damping: weekday traffic
  // must dominate clearly.
  EXPECT_GT(weekday, weekend * 3);
}

TEST(TraceGenerator, RejectsInvalidConfig) {
  auto config = tiny_config();
  config.duration_weeks = 0;
  EXPECT_THROW((void)generate_trace(config), std::invalid_argument);
  config = tiny_config();
  config.activity_scale = 0.0;
  EXPECT_THROW((void)generate_trace(config), std::invalid_argument);
  config = tiny_config();
  config.enterprise.num_users = 5;  // mismatch with population.num_users
  EXPECT_THROW((void)generate_trace(config), std::invalid_argument);

  // What a 16-byte draft cannot hold is refused, naming the field, before
  // any transaction is emitted.
  const auto refuses = [](const auto& generate, std::string_view field) {
    try {
      generate();
      ADD_FAILURE() << "no refusal naming " << field;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string_view{error.what()}.find(field), std::string_view::npos)
          << error.what();
    }
  };
  config = tiny_config();
  config.enterprise.num_devices = 65536;  // the device index is 16 bits
  refuses([&] { (void)generate_trace(config); }, "num_devices");
  config = tiny_config();
  config.duration_weeks = 7102;  // starts reach 2^32 s past start_time
  refuses([&] { (void)generate_trace(config); }, "duration_weeks");
  // No site pool config yields more than five media types at a site, so
  // the media limit is reached through a trace whose pools were edited.
  EnterpriseTrace trace = generate_trace(tiny_config());
  Site& site = trace.sites.front();
  site.media_types.resize(256, site.media_types.front());
  site.media_weights.resize(256, 1.0);
  util::ThreadPool pool{2};
  refuses([&] { generate_transactions(trace, pool); }, "media");
}

// Generation shares its pool with other callers: with one worker held by
// another caller's task, the free worker generates the whole trace and the
// call returns without waiting for that task.
TEST(TraceGenerator, WaitsOnlyForItsOwnTasks) {
  util::ThreadPool pool{2};
  std::promise<void> blocker_started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  pool.submit([&blocker_started, released] {
    blocker_started.set_value();
    released.wait();
  });
  blocker_started.get_future().wait();

  auto call = std::async(std::launch::async,
                         [&pool] { return generate_trace(tiny_config(), pool); });
  // A generator that waited on the whole pool would not return within the
  // bound while the other caller's task is blocked.
  const auto status = call.wait_for(std::chrono::seconds{10});
  release.set_value();
  const EnterpriseTrace trace = call.get();
  EXPECT_EQ(status, std::future_status::ready);
  EXPECT_EQ(trace.transactions, generate_trace(tiny_config()).transactions);
  pool.wait_idle();
}

/// FNV-1a over every field of every transaction, in order.  Strings are
/// hashed with their length so adjacent fields cannot trade bytes.
std::uint64_t digest(const std::vector<log::WebTransaction>& txns) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto bytes = [&hash](const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= p[i];
      hash *= 0x100000001b3ULL;
    }
  };
  const auto integer = [&bytes](std::uint64_t value) { bytes(&value, sizeof value); };
  const auto text = [&](const std::string& s) {
    integer(s.size());
    bytes(s.data(), s.size());
  };
  for (const auto& txn : txns) {
    integer(static_cast<std::uint64_t>(txn.timestamp));
    text(txn.url);
    integer(static_cast<std::uint64_t>(txn.scheme));
    integer(static_cast<std::uint64_t>(txn.action));
    text(txn.user_id);
    text(txn.device_id);
    text(txn.category);
    text(txn.media_type);
    text(txn.application_type);
    integer(static_cast<std::uint64_t>(txn.reputation));
    integer(txn.private_destination ? 1 : 0);
  }
  return hash;
}

// Pins the generator's output bytes: any rewrite of generate_trace or
// generate_session must reproduce these traces exactly, field for field.
TEST(TraceGenerator, OutputDigestIsPinned) {
  const EnterpriseTrace trace = generate_trace(tiny_config());
  EXPECT_EQ(trace.transactions.size(), 44848u);
  EXPECT_EQ(digest(trace.transactions), 12779769134768854019ULL);

  util::Rng rng{77};
  SessionSpec spec;
  spec.user_index = 2;
  spec.device_index = 1;
  spec.start = trace.config.start_time + util::kSecondsPerDay;
  spec.duration_minutes = 30.0;
  std::vector<log::WebTransaction> session;
  generate_session(trace, spec, rng, session);
  EXPECT_EQ(session.size(), 570u);
  EXPECT_EQ(digest(session), 9606354323979487760ULL);
}

// Rows take every string from the trace's handles: all rows holding one
// value (and the site, user or device it came from) point at one buffer.
TEST(TraceGenerator, RowsOfOneValueShareOneBuffer) {
  const EnterpriseTrace trace = generate_trace(tiny_config());
  util::Rng rng{77};
  SessionSpec spec;
  spec.user_index = 2;
  spec.device_index = 1;
  spec.start = trace.config.start_time + util::kSecondsPerDay;
  spec.duration_minutes = 30.0;
  std::vector<log::WebTransaction> rows = trace.transactions;
  generate_session(trace, spec, rng, rows);

  // One (field, value) -> buffer map; the trace's own values fill it first.
  enum Field { kUrl, kCategory, kApplication, kMedia, kUser, kDevice };
  std::map<std::pair<Field, std::string>, const void*> buffers;
  const auto check = [&buffers](Field field, const util::SharedString& value) {
    ASSERT_FALSE(value.empty());
    const auto [it, inserted] = buffers.try_emplace({field, std::string{value}}, value.c_str());
    ASSERT_EQ(it->second, static_cast<const void*>(value.c_str())) << value;
  };
  for (const auto& site : trace.sites) {
    check(kUrl, site.url);
    check(kCategory, site.category);
    check(kApplication, site.application_type);
    for (const auto& media_type : site.media_types) check(kMedia, media_type);
  }
  for (const auto& user : trace.users) check(kUser, user.user_id);
  for (const auto& device : trace.topology.device_ids) check(kDevice, device);
  const std::size_t vocabulary = buffers.size();
  for (const auto& txn : rows) {
    check(kUrl, txn.url);
    check(kUser, txn.user_id);
    check(kDevice, txn.device_id);
    check(kCategory, txn.category);
    check(kMedia, txn.media_type);
    check(kApplication, txn.application_type);
  }
  EXPECT_EQ(buffers.size(), vocabulary);  // no row brought a value of its own
}

/// The layer ledger's trace: 6 weeks at activity 0.4 over the paper's
/// vocabularies.
GeneratorConfig ledger_config() {
  GeneratorConfig config;
  config.seed = 42;
  config.duration_weeks = 6;
  config.activity_scale = 0.4;
  config.site_pool.num_categories = kPaperCategoryCount;
  config.site_pool.num_media_types = kPaperSubTypeCount;
  config.site_pool.num_application_types = kPaperApplicationTypeCount;
  return config;
}

/// Each value of a trace's vocabulary, by field, with the handle the trace
/// built for it.
struct Vocabulary {
  using Handles = std::unordered_map<std::string_view, util::SharedString>;
  Handles urls, categories, applications, media, users, devices;

  explicit Vocabulary(const EnterpriseTrace& trace) {
    for (const auto& site : trace.sites) {
      urls.emplace(site.url, site.url);
      categories.emplace(site.category, site.category);
      applications.emplace(site.application_type, site.application_type);
      for (const auto& media_type : site.media_types) media.emplace(media_type, media_type);
    }
    for (const auto& user : trace.users) users.emplace(user.user_id, user.user_id);
    for (const auto& device : trace.topology.device_ids) devices.emplace(device, device);
  }
};

// generate_trace's parallel passes produce the serial reference's rows, in
// its order, field for field, on every pool size; and every row's handles
// are the generated trace's own vocabulary handles.
TEST(TraceGenerator, MatchesSerialReferenceOnEveryPool) {
  GeneratorConfig wide = tiny_config();
  wide.seed = 5;
  wide.duration_weeks = 1;
  wide.population.num_users = 120;
  wide.population.num_clusters = 6;
  wide.enterprise.num_users = 120;
  wide.enterprise.num_devices = 90;
  for (const GeneratorConfig& config : {tiny_config(), wide, ledger_config()}) {
    const EnterpriseTrace want = testing::reference_trace(config);
    ASSERT_FALSE(want.transactions.empty());
    for (std::size_t threads = 1; threads <= 4; ++threads) {
      SCOPED_TRACE(::testing::Message() << config.population.num_users << " users, "
                                      << threads << " threads");
      util::ThreadPool pool{threads};
      const EnterpriseTrace got = generate_trace(config, pool);
      const Vocabulary vocabulary{got};
      ASSERT_EQ(got.transactions.size(), want.transactions.size());
      const auto own = [](const Vocabulary::Handles& handles,
                          const util::SharedString& value) {
        const auto it = handles.find(value);
        return it != handles.end() && value.shares_with(it->second);
      };
      for (std::size_t i = 0; i < want.transactions.size(); ++i) {
        const log::WebTransaction& a = got.transactions[i];
        const log::WebTransaction& b = want.transactions[i];
        ASSERT_EQ(a.timestamp, b.timestamp) << "row " << i;
        ASSERT_EQ(a.url, b.url) << "row " << i;
        ASSERT_EQ(a.scheme, b.scheme) << "row " << i;
        ASSERT_EQ(a.action, b.action) << "row " << i;
        ASSERT_EQ(a.user_id, b.user_id) << "row " << i;
        ASSERT_EQ(a.device_id, b.device_id) << "row " << i;
        ASSERT_EQ(a.category, b.category) << "row " << i;
        ASSERT_EQ(a.media_type, b.media_type) << "row " << i;
        ASSERT_EQ(a.application_type, b.application_type) << "row " << i;
        ASSERT_EQ(a.reputation, b.reputation) << "row " << i;
        ASSERT_EQ(a.private_destination, b.private_destination) << "row " << i;
        ASSERT_TRUE(own(vocabulary.urls, a.url) && own(vocabulary.users, a.user_id) &&
                    own(vocabulary.devices, a.device_id) &&
                    own(vocabulary.categories, a.category) &&
                    own(vocabulary.media, a.media_type) &&
                    own(vocabulary.applications, a.application_type))
            << "row " << i << " holds a handle of its own";
      }
    }
  }
}

TEST(TraceGenerator, RowIsAtMostEightyBytes) {
  EXPECT_LE(sizeof(log::WebTransaction), 80u);
}

TEST(ScriptedSession, EmitsTransactionsForRequestedUserAndDevice) {
  const EnterpriseTrace trace = generate_trace(tiny_config());
  util::Rng rng{77};
  SessionSpec spec;
  spec.user_index = 2;
  spec.device_index = 1;
  spec.start = trace.config.start_time + util::kSecondsPerDay;
  spec.duration_minutes = 10.0;
  std::vector<log::WebTransaction> out;
  generate_session(trace, spec, rng, out);
  ASSERT_FALSE(out.empty());
  for (const auto& txn : out) {
    ASSERT_EQ(txn.user_id, trace.users[2].user_id);
    ASSERT_EQ(txn.device_id, trace.topology.device_ids[1]);
    ASSERT_GE(txn.timestamp, spec.start);
  }
}

}  // namespace
}  // namespace wtp::synthetic
