#include "serve/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/identification.h"
#include "core/test_trace.h"
#include "features/split.h"
#include "serve/event.h"

namespace wtp::serve {
namespace {

/// Store trained on the shared tiny trace (fast linear SVDD profiles).
const core::ProfileStore& tiny_store() {
  static const core::ProfileStore store = [] {
    const core::ProfilingDataset& dataset = core::testing::tiny_dataset();
    const features::WindowConfig window{60, 30};
    std::vector<core::UserProfile> profiles;
    for (const auto& user : dataset.user_ids()) {
      core::ProfileParams params;
      params.type = core::ClassifierType::kSvdd;
      params.kernel = {svm::KernelType::kLinear, 0.0, 0.0, 3};
      params.regularizer = 0.5;
      profiles.push_back(core::UserProfile::train(
          user, *dataset.train_matrix(user, window),
          dataset.schema().dimension(), params));
    }
    return core::ProfileStore{window, dataset.schema(), std::move(profiles)};
  }();
  return store;
}

/// The single-device offline path the engine must reproduce byte for byte:
/// UserIdentifier::monitor + wtp_identify's smoothing policy.
std::vector<DecisionEvent> reference_events(
    const core::ProfileStore& store,
    std::span<const log::WebTransaction> device_txns, std::size_t smooth,
    svm::TransformMode tier = svm::TransformMode::kExact) {
  const core::UserIdentifier identifier{store.profiles(), store.schema(),
                                        store.window(), tier};
  const auto events = identifier.monitor(device_txns);
  std::vector<DecisionEvent> reference;
  reference.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    DecisionEvent out;
    out.window_start = events[i].window_start;
    out.window_end = events[i].window_end;
    out.transaction_count = events[i].transaction_count;
    out.true_user = events[i].true_user;
    out.accepted_by = events[i].accepted_by;
    if (smooth <= 1) {
      out.identity = core::UserIdentifier::decide_single(events[i]);
    } else if (i + 1 >= smooth) {
      out.identity = core::UserIdentifier::decide_consecutive(
          std::span{events}.subspan(i + 1 - smooth, smooth), smooth);
    }
    reference.push_back(std::move(out));
  }
  return reference;
}

/// Collects engine output grouped per device, preserving per-device order.
std::map<std::string, std::vector<DecisionEvent>> run_engine(
    const core::ProfileStore& store, EngineConfig config,
    std::span<const log::WebTransaction> txns) {
  std::map<std::string, std::vector<DecisionEvent>> by_device;
  ScoringEngine engine{store, config, [&by_device](const DecisionEvent& event) {
                         by_device[event.device_id].push_back(event);
                       }};
  for (const auto& txn : txns) engine.ingest(txn);
  engine.flush();
  return by_device;
}

void expect_equivalent(const std::vector<DecisionEvent>& engine_events,
                       const std::vector<DecisionEvent>& reference,
                       const std::string& device) {
  ASSERT_EQ(engine_events.size(), reference.size()) << device;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(engine_events[i].window_start, reference[i].window_start)
        << device << " window " << i;
    EXPECT_EQ(engine_events[i].window_end, reference[i].window_end)
        << device << " window " << i;
    EXPECT_EQ(engine_events[i].transaction_count,
              reference[i].transaction_count)
        << device << " window " << i;
    EXPECT_EQ(engine_events[i].true_user, reference[i].true_user)
        << device << " window " << i;
    EXPECT_EQ(engine_events[i].accepted_by, reference[i].accepted_by)
        << device << " window " << i;
    EXPECT_EQ(engine_events[i].identity, reference[i].identity)
        << device << " window " << i;
  }
}

TEST(ScoringEngine, InterleavedStreamMatchesPerDeviceIdentifier) {
  const auto& store = tiny_store();
  const auto& trace = core::testing::tiny_trace();
  const auto by_device = features::group_by_device(trace.transactions);
  ASSERT_GE(by_device.size(), 2u);

  EngineConfig config;
  config.shards = 4;
  config.smooth = 3;
  config.score_threads = 2;
  const auto engine_events = run_engine(store, config, trace.transactions);

  ASSERT_EQ(engine_events.size(), by_device.size());
  for (const auto& [device, txns] : by_device) {
    expect_equivalent(engine_events.at(device),
                      reference_events(store, txns, config.smooth), device);
  }
}

TEST(ScoringEngine, SerialAndPooledScoringAgree) {
  const auto& store = tiny_store();
  const auto& trace = core::testing::tiny_trace();

  EngineConfig serial;
  serial.shards = 1;
  serial.smooth = 1;
  serial.score_threads = 0;
  EngineConfig pooled;
  pooled.shards = 8;
  pooled.smooth = 1;
  pooled.score_threads = 4;

  const auto a = run_engine(store, serial, trace.transactions);
  const auto b = run_engine(store, pooled, trace.transactions);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [device, events] : a) {
    expect_equivalent(b.at(device), events, device);
  }
}

TEST(ScoringEngine, PlaneRoutedScoringMatchesDirectFanOut) {
  const auto& store = tiny_store();
  const auto& trace = core::testing::tiny_trace();

  const index::HeapProfileCatalog catalog{store};
  // Wide-open budgets: every stage passes everyone, so the plane's accepted
  // set must equal the direct fan-out's exactly — this pins the serve-side
  // routing (flags built from cascade survivors in store order).
  index::CascadeConfig cascade;
  cascade.overlap_keep = 0;
  cascade.centroid_keep = 0;
  cascade.final_keep = 0;
  cascade.min_overlap = 0;
  const index::IdentificationPlane plane{catalog, cascade};

  EngineConfig direct;
  direct.shards = 4;
  direct.smooth = 3;
  EngineConfig routed = direct;
  routed.plane = &plane;

  const auto a = run_engine(store, direct, trace.transactions);
  const auto b = run_engine(store, routed, trace.transactions);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [device, events] : a) {
    expect_equivalent(b.at(device), events, device);
  }
}

/// Two engines in one process keep their own transform tier: building an
/// exact engine after a relaxed one must not switch the relaxed one to
/// exact.  The store's one RBF profile has its rho on the larger of one
/// window's two tier sums, so that window's acceptance depends on the last
/// bits of its decision: the exact and relaxed tiers accept it differently.
TEST(ScoringEngine, TwoEnginesKeepTheirOwnTier) {
  const core::ProfilingDataset& dataset = core::testing::tiny_dataset();
  const features::WindowConfig window{60, 30};
  const auto by_device =
      features::group_by_device(core::testing::tiny_trace().transactions);
  const auto busiest = std::max_element(
      by_device.begin(), by_device.end(), [](const auto& a, const auto& b) {
        return a.second.size() < b.second.size();
      });
  const std::string& device = busiest->first;
  const auto& txns = busiest->second;

  core::ProfileParams params;
  params.type = core::ClassifierType::kOcSvm;
  params.kernel = {svm::KernelType::kRbf, 0.0, 0.0, 3};
  params.regularizer = 0.3;
  const std::string user = dataset.user_ids().front();
  const auto trained = core::UserProfile::train(
      user, *dataset.train_matrix(user, window), dataset.schema().dimension(),
      params);
  const auto& model = trained.model();
  const auto with_rho = [&model](double rho) {
    return svm::SvmModel::from_parts(svm::SvmKind::kOcSvm, model.kernel(),
                                     model.support_vectors(),
                                     model.coefficients(), rho);
  };
  // With rho = 0 a decision is the tier's raw kernel sum.
  const auto unbiased = with_rho(0.0);
  double edge = std::numeric_limits<double>::quiet_NaN();
  const features::WindowAggregator aggregator{dataset.schema(), window};
  for (const auto& w : aggregator.aggregate(txns)) {
    const double sqnorm = w.features.squared_norm();
    const double exact =
        unbiased.decision_value(w.features, sqnorm, svm::TransformMode::kExact);
    const double relaxed = unbiased.decision_value(
        w.features, sqnorm, svm::TransformMode::kRelaxed);
    if (exact != relaxed) {
      edge = std::max(exact, relaxed);
      break;
    }
  }
  ASSERT_FALSE(std::isnan(edge)) << "no window separates the two tiers";
  std::vector<core::UserProfile> profiles;
  profiles.push_back(
      core::UserProfile::from_model(user, params, with_rho(edge)));
  const core::ProfileStore store{window, dataset.schema(), std::move(profiles)};

  std::vector<DecisionEvent> relaxed_events;
  std::vector<DecisionEvent> exact_events;
  EngineConfig relaxed_config;
  relaxed_config.transform = svm::TransformMode::kRelaxed;
  ScoringEngine relaxed_engine{
      store, relaxed_config,
      [&relaxed_events](const DecisionEvent& e) { relaxed_events.push_back(e); }};
  EngineConfig exact_config;
  exact_config.transform = svm::TransformMode::kExact;
  ScoringEngine exact_engine{
      store, exact_config,
      [&exact_events](const DecisionEvent& e) { exact_events.push_back(e); }};
  for (const auto& txn : txns) {
    relaxed_engine.ingest(txn);
    exact_engine.ingest(txn);
  }
  relaxed_engine.flush();
  exact_engine.flush();

  const auto relaxed_reference =
      reference_events(store, txns, 1, svm::TransformMode::kRelaxed);
  expect_equivalent(exact_events, reference_events(store, txns, 1), device);
  expect_equivalent(relaxed_events, relaxed_reference, device);
  // The cascade plane scores in its engine's tier too (wide-open budgets:
  // every user reaches the SVM stage).
  const index::HeapProfileCatalog catalog{store};
  index::CascadeConfig open;
  open.overlap_keep = 0;
  open.centroid_keep = 0;
  open.final_keep = 0;
  open.min_overlap = 0;
  const index::IdentificationPlane plane{catalog, open};
  EngineConfig routed = relaxed_config;
  routed.plane = &plane;
  expect_equivalent(run_engine(store, routed, txns).at(device),
                    relaxed_reference, device);
  ASSERT_EQ(relaxed_events.size(), exact_events.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < exact_events.size(); ++i) {
    if (relaxed_events[i].accepted_by != exact_events[i].accepted_by) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0u);
}

TEST(ScoringEngine, RejectsPlaneWithMismatchedCatalog) {
  const auto& store = tiny_store();
  // A catalog over a store with fewer users than the engine's store.
  std::vector<core::UserProfile> subset{store.profiles().begin(),
                                        store.profiles().end() - 1};
  const core::ProfileStore smaller{store.window(), store.schema(),
                                   std::move(subset)};
  const index::HeapProfileCatalog catalog{smaller};
  const index::IdentificationPlane plane{catalog};
  EngineConfig config;
  config.plane = &plane;
  EXPECT_THROW(
      (ScoringEngine{store, config, [](const DecisionEvent&) {}}),
      std::invalid_argument);
}

TEST(ScoringEngine, MetricsCountStreamActivity) {
  const auto& store = tiny_store();
  const auto& trace = core::testing::tiny_trace();

  std::size_t events_seen = 0;
  std::size_t decided = 0;
  std::size_t correct = 0;
  EngineConfig config;
  config.shards = 4;
  config.smooth = 3;
  ScoringEngine engine{store, config, [&](const DecisionEvent& event) {
                         ++events_seen;
                         if (event.decided()) ++decided;
                         if (event.correct()) ++correct;
                       }};
  for (const auto& txn : trace.transactions) engine.ingest(txn);

  EngineMetrics metrics = engine.metrics();
  EXPECT_EQ(metrics.transactions_ingested, trace.transactions.size());
  EXPECT_GT(metrics.sessions_active, 0u);
  EXPECT_EQ(metrics.sessions_created, metrics.sessions_active);
  EXPECT_EQ(metrics.sessions_evicted, 0u);

  engine.flush();
  metrics = engine.metrics();
  EXPECT_EQ(metrics.sessions_active, 0u);
  EXPECT_EQ(metrics.windows_scored, events_seen);
  EXPECT_EQ(metrics.decisions_emitted, decided);
  EXPECT_EQ(metrics.correct_decisions, correct);
  EXPECT_GT(metrics.windows_scored, 0u);
  EXPECT_EQ(metrics.ingest.count, trace.transactions.size());
  EXPECT_EQ(metrics.score.count, metrics.windows_scored);
  EXPECT_GE(metrics.score.p99_us, metrics.score.p50_us);
}

log::WebTransaction txn_at(util::UnixSeconds ts, const std::string& device,
                           const std::string& user) {
  log::WebTransaction txn;
  txn.timestamp = ts;
  txn.device_id = device;
  txn.user_id = user;
  txn.url = "www.example.com";
  txn.category = "Games";
  txn.media_type = "text/html";
  txn.application_type = "YouTube";
  return txn;
}

TEST(ScoringEngine, TtlEvictionFlushesAndRestartsSession) {
  const auto& store = tiny_store();

  std::vector<DecisionEvent> events;
  EngineConfig config;
  config.shards = 1;  // one shard so devB's arrival sweeps devA
  config.smooth = 1;
  config.session_ttl_s = 600;
  ScoringEngine engine{store, config, [&events](const DecisionEvent& event) {
                         events.push_back(event);
                       }};

  engine.ingest(txn_at(1000, "devA", "user_1"));
  engine.ingest(txn_at(1030, "devA", "user_1"));
  engine.ingest(txn_at(1070, "devA", "user_1"));  // completes [1000, 1060)

  const auto stream_events = events.size();
  ASSERT_GE(stream_events, 1u);
  EXPECT_TRUE(std::all_of(events.begin(), events.end(), [](const auto& e) {
    return e.device_id == "devA" && e.source == EventSource::kStream;
  }));

  // devA has been idle far beyond the TTL when devB's traffic arrives: the
  // shard sweep evicts it, flushing its still-open windows.
  engine.ingest(txn_at(1000000, "devB", "user_2"));
  EXPECT_EQ(engine.metrics().sessions_evicted, 1u);
  ASSERT_GT(events.size(), stream_events);
  for (std::size_t i = stream_events; i < events.size(); ++i) {
    EXPECT_EQ(events[i].device_id, "devA");
    EXPECT_EQ(events[i].source, EventSource::kEviction);
  }

  // Re-arrival starts a clean session: the first window opens at the new
  // transaction's timestamp, not at the evicted session's origin.
  engine.ingest(txn_at(2000000, "devA", "user_1"));
  EXPECT_EQ(engine.metrics().sessions_created, 3u);
  events.clear();
  engine.flush();
  ASSERT_FALSE(events.empty());
  const auto restarted =
      std::find_if(events.begin(), events.end(),
                   [](const auto& e) { return e.device_id == "devA"; });
  ASSERT_NE(restarted, events.end());
  EXPECT_EQ(restarted->window_start, 2000000);
  EXPECT_EQ(restarted->source, EventSource::kFlush);
}

TEST(ScoringEngine, LruCapEvictsLeastRecentlyActiveSession) {
  const auto& store = tiny_store();

  EngineConfig config;
  config.shards = 1;
  config.max_sessions = 1;
  std::size_t evict_events = 0;
  ScoringEngine engine{store, config, [&evict_events](const DecisionEvent& event) {
                         if (event.source == EventSource::kEviction) ++evict_events;
                       }};

  engine.ingest(txn_at(1000, "devA", "user_1"));
  EXPECT_EQ(engine.metrics().sessions_active, 1u);
  engine.ingest(txn_at(1001, "devB", "user_2"));
  EngineMetrics metrics = engine.metrics();
  EXPECT_EQ(metrics.sessions_active, 1u);
  EXPECT_EQ(metrics.sessions_evicted, 1u);
  EXPECT_EQ(evict_events, 1u);  // devA's open window was flushed on the way out
  engine.ingest(txn_at(1002, "devA", "user_1"));
  metrics = engine.metrics();
  EXPECT_EQ(metrics.sessions_active, 1u);
  EXPECT_EQ(metrics.sessions_evicted, 2u);
}

// A device's shard is std::hash<std::string> of its id modulo the shard
// count, whatever string type carries the id: device_shard takes a view, and
// the engine's sessions (written to a snapshot shard by shard) follow it.
TEST(ScoringEngine, DeviceShardIsStdStringHashModuloShards) {
  std::vector<std::string> devices;
  for (int d = 0; d < 40; ++d) devices.push_back("device_" + std::to_string(d));
  devices.push_back("");
  devices.push_back("10.0.0.17 with a long, spaced device name");
  for (const std::size_t shards : {1u, 3u, 8u}) {
    for (const auto& device : devices) {
      const std::size_t expected = std::hash<std::string>{}(device) % shards;
      EXPECT_EQ(device_shard(std::string_view{device}, shards), expected) << device;
      EXPECT_EQ(device_shard(util::SharedString{device}, shards), expected) << device;
    }
  }

  EngineConfig config;
  config.shards = 8;
  ScoringEngine engine{tiny_store(), config, [](const DecisionEvent&) {}};
  for (std::size_t d = 0; d < 40; ++d) {
    engine.ingest(txn_at(1000 + static_cast<util::UnixSeconds>(d), devices[d], "user_1"));
  }
  std::stringstream snapshot;
  engine.save_snapshot(snapshot);
  std::vector<std::size_t> order;
  for (std::string line; std::getline(snapshot, line);) {
    if (!line.starts_with("session ")) continue;
    const std::size_t colon = line.find(':');
    const std::size_t length = std::stoul(line.substr(8, colon - 8));
    order.push_back(std::hash<std::string>{}(line.substr(colon + 1, length)) % 8);
  }
  ASSERT_EQ(order.size(), 40u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(ScoringEngine, RejectsInvalidConfiguration) {
  const auto& store = tiny_store();
  const auto sink = [](const DecisionEvent&) {};

  EngineConfig no_shards;
  no_shards.shards = 0;
  EXPECT_THROW((ScoringEngine{store, no_shards, sink}), std::invalid_argument);

  EXPECT_THROW((ScoringEngine{store, EngineConfig{}, EventSink{}}),
               std::invalid_argument);

  const core::ProfileStore empty_store{store.window(), store.schema(), {}};
  EXPECT_THROW((ScoringEngine{empty_store, EngineConfig{}, sink}),
               std::invalid_argument);
}

TEST(ScoringEngine, RejectsOutOfOrderTransactionsPerDevice) {
  const auto& store = tiny_store();
  ScoringEngine engine{store, EngineConfig{}, [](const DecisionEvent&) {}};
  engine.ingest(txn_at(1000, "devA", "user_1"));
  EXPECT_THROW(engine.ingest(txn_at(999, "devA", "user_1")),
               std::invalid_argument);
  // Other devices are unaffected: interleaving is unrestricted across devices.
  engine.ingest(txn_at(500, "devB", "user_2"));
}

TEST(DecisionEventJson, EscapesAndSerializesAllFields) {
  DecisionEvent event;
  event.device_id = "dev\"1\"";
  event.window_start = 100;
  event.window_end = 160;
  event.transaction_count = 3;
  event.true_user = "user_1";
  event.accepted_by = {"user_1", "user_2"};
  event.identity = "user_1";
  event.source = EventSource::kStream;
  EXPECT_EQ(to_json_line(event),
            "{\"type\":\"decision\",\"device\":\"dev\\\"1\\\"\","
            "\"window_start\":100,\"window_end\":160,\"transactions\":3,"
            "\"true_user\":\"user_1\",\"accepted\":[\"user_1\",\"user_2\"],"
            "\"identity\":\"user_1\",\"correct\":true,\"source\":\"stream\"}");

  event.identity.clear();
  const std::string undecided = to_json_line(event);
  EXPECT_EQ(undecided.find("\"correct\""), std::string::npos);
  EXPECT_NE(undecided.find("\"identity\":\"\""), std::string::npos);
}

// A hostile user id (log injection attempt: quote-close, backslash, newline,
// control byte) must come out as one clean JSON line — no raw control bytes
// and every quote inside string values escaped.
TEST(DecisionEventJson, HostileUserIdCannotBreakTheLine) {
  DecisionEvent event;
  event.device_id = "dev\\1\n";
  event.true_user = "alice\"},{\"type\":\"fake\x01";
  event.accepted_by = {event.true_user};
  event.identity = event.true_user;
  event.source = EventSource::kFlush;
  const std::string line = to_json_line(event);
  for (const char c : line) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << "raw control byte leaked";
  }
  EXPECT_EQ(line.find("\"type\":\"fake"), std::string::npos);
  EXPECT_NE(line.find("\\\"type\\\":\\\"fake\\u0001"), std::string::npos);
  EXPECT_NE(line.find("\"device\":\"dev\\\\1\\n\""), std::string::npos);
  // The smoothed identity equals the hostile true user, so the decision is
  // still judged correct — escaping must not perturb comparison semantics.
  EXPECT_NE(line.find("\"correct\":true"), std::string::npos);
}

}  // namespace
}  // namespace wtp::serve
