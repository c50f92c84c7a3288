// Online retraining determinism: drift detection feeds a window buffer,
// run_once() refits through the same fit_path plane the offline tools use,
// and the hot-swap is atomic, guarded, and observable through the registry.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/profile_store.h"
#include "core/profile_test_util.h"
#include "core/test_trace.h"
#include "obs/registry.h"
#include "serve/engine.h"
#include "serve/retrain/collector.h"
#include "serve/retrain/trainer.h"
#include "serve/serve_test_util.h"

namespace wtp::serve::retrain {
namespace {

using testing::tiny_store;

const features::WindowConfig kWindow{60, 30};

CollectorConfig fast_drift_config() {
  CollectorConfig config;
  config.window_capacity = 64;
  config.min_windows = 4;
  config.drift.cusum_threshold = 2.0;
  config.drift.warmup = 5;
  return config;
}

TrainerConfig eager_trainer_config() {
  TrainerConfig config;
  config.min_retrain_interval_s = 0.0;
  config.max_retrains_per_cycle = 100;
  return config;
}

/// Feeds `user` enough rejected self-windows (drawn from `donor`'s traffic,
/// so the buffer genuinely differs from the original training corpus) to
/// fire its drift monitor.
void force_drift(WindowCollector& collector, const std::string& user,
                 const std::string& donor) {
  const auto& dataset = core::testing::tiny_dataset();
  const auto windows = core::testing::rows_of(*dataset.train_matrix(donor, kWindow));
  ASSERT_FALSE(windows.empty());
  std::size_t fed = 0;
  while (!collector.drift_detected(user) || collector.buffered(user) < 8) {
    collector.observe(user, windows[fed % windows.size()], false);
    ASSERT_LT(++fed, 10000u) << "drift monitor never fired";
  }
}

TEST(Retrain, DriftRetrainMatchesOfflineFitPathOracle) {
  obs::Registry registry;
  EngineConfig config;
  config.score_threads = 0;
  config.registry = &registry;
  ScoringEngine engine{tiny_store(), config, [](const DecisionEvent&) {}};

  const auto& users = core::testing::tiny_dataset().user_ids();
  ASSERT_GE(users.size(), 2u);
  const std::string& user = users.front();
  const std::string& donor = users.back();

  WindowCollector collector{users, fast_drift_config(), &registry};
  RetrainLoop loop{engine, collector, eager_trainer_config(), &registry};

  ASSERT_NO_FATAL_FAILURE(force_drift(collector, user, donor));
  ASSERT_EQ(collector.drifted_users(), std::vector<std::string>{user});

  // Freeze the corpus and the pre-swap profile: the oracle is a pure
  // offline refit on exactly that buffer.
  const auto corpus = collector.window_snapshot(user);
  const auto before = engine.profiles_snapshot();
  const core::UserProfile* original = nullptr;
  for (const auto& profile : *before) {
    if (profile.user_id() == user) original = &profile;
  }
  ASSERT_NE(original, nullptr);
  const std::size_t dimension =
      core::testing::tiny_dataset().schema().dimension();
  const core::UserProfile oracle = RetrainLoop::refit(
      *original, util::FeatureMatrix::from_rows(corpus, dimension), dimension);

  EXPECT_EQ(loop.run_once(), 1u);

  const auto after = engine.profiles_snapshot();
  const core::UserProfile* swapped = nullptr;
  for (const auto& profile : *after) {
    if (profile.user_id() == user) swapped = &profile;
  }
  ASSERT_NE(swapped, nullptr);
  EXPECT_EQ(swapped->params().type, original->params().type);

  // Bit-identical decisions: same solver plane, same corpus, same
  // hyper-parameters.  Probe with both the retraining corpus and the
  // original training windows.
  using core::testing::decide;
  for (const auto& window : corpus) {
    EXPECT_EQ(decide(*swapped, window), decide(oracle, window));
  }
  const auto probes = core::testing::rows_of(
      *core::testing::tiny_dataset().train_matrix(user, kWindow));
  bool any_changed = false;
  for (const auto& probe : probes) {
    EXPECT_EQ(decide(*swapped, probe), decide(oracle, probe));
    if (decide(*swapped, probe) != decide(*original, probe)) any_changed = true;
  }
  EXPECT_TRUE(any_changed) << "retrain on a different corpus was a no-op";

  // Swap observable via counters; monitor re-armed.
  EXPECT_EQ(registry.counter("retrain.completed").value(), 1u);
  EXPECT_EQ(registry.counter("serve.profile_swaps").value(), 1u);
  EXPECT_GE(registry.counter("retrain.drift_signals").value(), 1u);
  EXPECT_EQ(engine.metrics().profile_swaps, 1u);
  EXPECT_FALSE(collector.drift_detected(user));
  EXPECT_TRUE(collector.drifted_users().empty());
}

TEST(Retrain, KillSwitchFreezesLoopWithoutLosingState) {
  obs::Registry registry;
  EngineConfig config;
  config.score_threads = 0;
  ScoringEngine engine{tiny_store(), config, [](const DecisionEvent&) {}};

  const auto& users = core::testing::tiny_dataset().user_ids();
  WindowCollector collector{users, fast_drift_config(), &registry};
  TrainerConfig trainer = eager_trainer_config();
  trainer.enabled = false;  // born frozen
  RetrainLoop loop{engine, collector, trainer, &registry};

  ASSERT_NO_FATAL_FAILURE(
      force_drift(collector, users.front(), users.back()));
  EXPECT_FALSE(loop.enabled());
  EXPECT_EQ(loop.run_once(), 0u);
  EXPECT_EQ(registry.counter("retrain.completed").value(), 0u);
  EXPECT_TRUE(collector.drift_detected(users.front()));  // state kept

  loop.set_enabled(true);
  EXPECT_EQ(loop.run_once(), 1u);
  EXPECT_EQ(registry.counter("retrain.completed").value(), 1u);
}

TEST(Retrain, PerCycleCapAndMinIntervalGuard) {
  obs::Registry registry;
  EngineConfig config;
  config.score_threads = 0;
  config.registry = &registry;
  ScoringEngine engine{tiny_store(), config, [](const DecisionEvent&) {}};

  const auto& users = core::testing::tiny_dataset().user_ids();
  ASSERT_GE(users.size(), 3u);
  WindowCollector collector{users, fast_drift_config(), &registry};
  TrainerConfig trainer = eager_trainer_config();
  trainer.max_retrains_per_cycle = 1;
  RetrainLoop loop{engine, collector, trainer, &registry};

  ASSERT_NO_FATAL_FAILURE(force_drift(collector, users[0], users.back()));
  ASSERT_NO_FATAL_FAILURE(force_drift(collector, users[1], users.back()));

  // Cycle 1: cap of one — first drifted user swaps, second is suppressed.
  EXPECT_EQ(loop.run_once(), 1u);
  EXPECT_EQ(registry.counter("retrain.completed").value(), 1u);
  EXPECT_GE(registry.counter("retrain.suppressed").value(), 1u);
  // Cycle 2: the suppressed user is still drifted and now gets its turn.
  EXPECT_EQ(loop.run_once(), 1u);
  EXPECT_EQ(registry.counter("retrain.completed").value(), 2u);
  EXPECT_EQ(registry.counter("serve.profile_swaps").value(), 2u);

  // Re-drift a freshly retrained user: the per-user minimum interval
  // suppresses the immediate re-retrain.
  trainer.min_retrain_interval_s = 3600.0;
  RetrainLoop guarded{engine, collector, trainer, &registry};
  ASSERT_NO_FATAL_FAILURE(force_drift(collector, users[0], users.back()));
  const auto suppressed_before =
      registry.counter("retrain.suppressed").value();
  EXPECT_EQ(guarded.run_once(), 1u);  // fresh loop: no last-retrain record yet
  ASSERT_NO_FATAL_FAILURE(force_drift(collector, users[0], users.back()));
  EXPECT_EQ(guarded.run_once(), 0u);
  EXPECT_GT(registry.counter("retrain.suppressed").value(), suppressed_before);
}

TEST(Retrain, DriftSoakThroughLiveEngine) {
  // A deliberately mis-trained store: each user's profile is fitted on the
  // *next* user's windows, so every user's self-acceptance collapses and
  // drift fires through real ingest — then the loop repairs the node while
  // scoring continues.
  const auto& dataset = core::testing::tiny_dataset();
  const auto& users = dataset.user_ids();
  std::vector<core::UserProfile> profiles;
  for (std::size_t i = 0; i < users.size(); ++i) {
    core::ProfileParams params;
    params.type = core::ClassifierType::kSvdd;
    params.kernel = {svm::KernelType::kLinear, 0.0, 0.0, 3};
    params.regularizer = 0.5;
    const auto& donor = users[(i + 1) % users.size()];
    profiles.push_back(core::UserProfile::train(
        users[i], *dataset.train_matrix(donor, kWindow),
        dataset.schema().dimension(), params));
  }
  const core::ProfileStore store{kWindow, dataset.schema(),
                                 std::move(profiles)};

  obs::Registry registry;
  WindowCollector collector{users, fast_drift_config(), &registry};
  EngineConfig config;
  config.shards = 4;
  config.smooth = 3;
  config.score_threads = 0;
  config.registry = &registry;
  config.collector = &collector;
  std::size_t decisions = 0;
  ScoringEngine engine{store, config,
                       [&decisions](const DecisionEvent&) { ++decisions; }};
  RetrainLoop loop{engine, collector, eager_trainer_config(), &registry};

  const auto& txns = core::testing::tiny_trace().transactions;
  // Interleave ingest with poll cycles: scoring continues across swaps.
  const std::size_t quarter = txns.size() / 4;
  std::size_t at = 0;
  for (std::size_t phase = 0; phase < 4; ++phase) {
    const std::size_t stop = (phase == 3) ? txns.size() : at + quarter;
    for (; at < stop; ++at) engine.ingest(txns[at]);
    (void)loop.run_once();
  }
  engine.flush();

  EXPECT_GE(registry.counter("retrain.windows_observed").value(), 1u);
  EXPECT_GE(registry.counter("retrain.drift_signals").value(), 1u);
  EXPECT_GE(registry.counter("retrain.completed").value(), 1u);
  EXPECT_GE(engine.metrics().profile_swaps, 1u);
  EXPECT_EQ(registry.counter("retrain.failed").value(), 0u);
  // Every scored window reached the sink — no decision was dropped or lost
  // across the hot-swaps.
  EXPECT_EQ(engine.metrics().windows_scored, decisions);
  EXPECT_GT(engine.metrics().decisions_emitted, 0u);
}

TEST(Retrain, BackgroundThreadRetrainsAndStopsCleanly) {
  obs::Registry registry;
  EngineConfig config;
  config.score_threads = 0;
  ScoringEngine engine{tiny_store(), config, [](const DecisionEvent&) {}};

  const auto& users = core::testing::tiny_dataset().user_ids();
  WindowCollector collector{users, fast_drift_config(), &registry};
  TrainerConfig trainer = eager_trainer_config();
  trainer.poll_interval_s = 0.01;
  RetrainLoop loop{engine, collector, trainer, &registry};
  loop.start();
  loop.start();  // idempotent

  ASSERT_NO_FATAL_FAILURE(
      force_drift(collector, users.front(), users.back()));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (registry.counter("retrain.completed").value() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "background retrain never happened";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  loop.stop();
  loop.stop();  // idempotent
  EXPECT_GE(registry.counter("retrain.completed").value(), 1u);
  EXPECT_GE(engine.metrics().profile_swaps, 1u);
}

TEST(Retrain, PublishProfileRejectsUnknownUserAndCollectorValidates) {
  EngineConfig config;
  config.score_threads = 0;
  ScoringEngine engine{tiny_store(), config, [](const DecisionEvent&) {}};
  const auto profiles = engine.profiles_snapshot();
  core::UserProfile clone = profiles->front();
  EXPECT_TRUE(engine.publish_profile(clone.user_id(), clone));
  EXPECT_FALSE(engine.publish_profile("no_such_user", std::move(clone)));

  CollectorConfig bad;
  bad.window_capacity = 0;
  const std::vector<std::string> users{"u"};
  EXPECT_THROW((WindowCollector{users, bad}), std::invalid_argument);
}

}  // namespace
}  // namespace wtp::serve::retrain
