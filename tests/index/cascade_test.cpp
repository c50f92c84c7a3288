// IdentificationPlane: the cascade must never change the identification
// argmax (no-false-prune invariant vs exhaustive fan-out), whose exact
// ties go to the first profile in store order, must behave identically over
// heap and mmap catalogs, and must publish per-stage survivor counts
// through its registry.
#include "index/cascade.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/profiler.h"
#include "core/profile_test_util.h"
#include "core/test_trace.h"
#include "index/mapped_store.h"
#include "obs/registry.h"
#include "synthetic/scale.h"

namespace wtp::index {
namespace {

synthetic::ScalePopulation population_of(std::size_t users) {
  synthetic::ScaleConfig config;
  config.seed = 11;
  config.users = users;
  return synthetic::ScalePopulation{config};
}

core::ProfileStore heap_store(const synthetic::ScalePopulation& population) {
  std::vector<core::UserProfile> profiles;
  const core::ProfileParams params{core::ClassifierType::kOcSvm,
                                   population.config().kernel, 0.5};
  for (std::size_t u = 0; u < population.size(); ++u) {
    profiles.push_back(core::UserProfile::from_model(population.user_id(u), params,
                                                     population.make_model(u)));
  }
  return core::ProfileStore{population.window(), population.schema(),
                            std::move(profiles)};
}

TEST(Cascade, ArgmaxMatchesExhaustiveFanOut) {
  const auto population = population_of(300);
  const auto store = heap_store(population);
  const HeapProfileCatalog catalog{store};
  const IdentificationPlane plane{catalog};

  for (std::size_t q = 0; q < 40; ++q) {
    const util::SparseVector window =
        population.sample_window(q * 7 % population.size(), 0xc0ffee + q);
    const IdentificationResult cascade = plane.identify(window);
    const IdentificationResult exhaustive = plane.identify_exhaustive(window);
    ASSERT_EQ(cascade.best, exhaustive.best) << "query " << q;
    ASSERT_EQ(cascade.best_decision, exhaustive.best_decision) << "query " << q;
    ASSERT_EQ(exhaustive.scored, population.size());
    ASSERT_LE(cascade.scored, plane.config().final_keep);
  }
}

TEST(Cascade, SurvivorCountsAreMonotoneAcrossStages) {
  const auto population = population_of(300);
  const auto store = heap_store(population);
  const HeapProfileCatalog catalog{store};
  CascadeConfig config;
  config.overlap_keep = 128;
  config.centroid_keep = 32;
  config.final_keep = 8;
  const IdentificationPlane plane{catalog, config};

  const IdentificationResult result =
      plane.identify(population.sample_window(5, 0xfee1));
  EXPECT_LE(result.overlap_survivors, 128u);
  EXPECT_LE(result.centroid_survivors, result.overlap_survivors);
  EXPECT_LE(result.gaussian_survivors, result.centroid_survivors);
  EXPECT_LE(result.scored, result.gaussian_survivors);
  EXPECT_LE(result.scored, 8u);
  EXPECT_NE(result.best, IdentificationResult::npos);
}

TEST(Cascade, WideBudgetsAcceptExactlyLikeExhaustive) {
  const auto population = population_of(60);
  const auto store = heap_store(population);
  const HeapProfileCatalog catalog{store};
  CascadeConfig config;
  config.overlap_keep = 0;  // 0 disables a stage: everyone passes through
  config.centroid_keep = 0;
  config.final_keep = 0;
  config.min_overlap = 0;
  const IdentificationPlane plane{catalog, config};

  for (std::size_t q = 0; q < 10; ++q) {
    const util::SparseVector window = population.sample_window(q, 0xd00d + q);
    const IdentificationResult cascade = plane.identify(window);
    const IdentificationResult exhaustive = plane.identify_exhaustive(window);
    ASSERT_EQ(cascade.scored, population.size());
    ASSERT_EQ(cascade.accepted, exhaustive.accepted);
    ASSERT_EQ(cascade.best, exhaustive.best);
  }
}

TEST(Cascade, HeapAndMappedCatalogsScoreIdentically) {
  const auto population = population_of(80);
  const auto store = heap_store(population);
  const std::string path = ::testing::TempDir() + "/cascade_equiv.wtpstore";
  write_mapped_store(store, path);
  const MappedProfileStore mapped = MappedProfileStore::open(path);

  const HeapProfileCatalog heap_catalog{store};
  const IdentificationPlane heap_plane{heap_catalog};
  const IdentificationPlane mapped_plane{mapped};

  for (std::size_t q = 0; q < 20; ++q) {
    const util::SparseVector window =
        population.sample_window(q % population.size(), 0xfade + q);
    const IdentificationResult a = heap_plane.identify(window);
    const IdentificationResult b = mapped_plane.identify(window);
    ASSERT_EQ(a.best, b.best);
    ASSERT_EQ(a.best_decision, b.best_decision);  // bit-identical backends
    ASSERT_EQ(a.accepted, b.accepted);
    ASSERT_EQ(a.scored, b.scored);
  }
}

TEST(Cascade, PublishesPerStageMetrics) {
  const auto population = population_of(120);
  const auto store = heap_store(population);
  const HeapProfileCatalog catalog{store};
  obs::Registry registry;
  CascadeConfig config;
  config.registry = &registry;
  const IdentificationPlane plane{catalog, config};

  constexpr std::size_t kQueries = 5;
  for (std::size_t q = 0; q < kQueries; ++q) {
    (void)plane.identify(population.sample_window(q, 0xbead + q));
  }
  (void)plane.identify_exhaustive(population.sample_window(0, 0xbead));

  const obs::Snapshot snapshot = registry.snapshot();
  std::uint64_t windows = 0, kernel_rows = 0, exhaustive_windows = 0;
  for (const auto& counter : snapshot.counters) {
    const std::string key = obs::canonical_key(counter.name, counter.labels);
    if (key == "index.windows") windows = counter.value;
    if (key == "index.kernel_row_calls") kernel_rows = counter.value;
    if (key == "index.exhaustive_windows") exhaustive_windows = counter.value;
  }
  EXPECT_EQ(windows, kQueries);
  EXPECT_EQ(exhaustive_windows, 1u);
  EXPECT_GT(kernel_rows, 0u);
  EXPECT_LE(kernel_rows, kQueries * plane.config().final_keep);
}

TEST(Cascade, ThreadSafeIdentify) {
  const auto population = population_of(100);
  const auto store = heap_store(population);
  const HeapProfileCatalog catalog{store};
  const IdentificationPlane plane{catalog};

  // Reference answers computed serially first.
  std::vector<std::size_t> expected;
  for (std::size_t q = 0; q < 16; ++q) {
    expected.push_back(
        plane.identify(population.sample_window(q, 0xace + q)).best);
  }
  std::vector<std::size_t> got(16, IdentificationResult::npos);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t q = t; q < 16; q += 4) {
        got[q] = plane.identify(population.sample_window(q, 0xace + q)).best;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(got, expected);
}

/// The plane's first-max rule on trace-trained RBF profiles: the reported
/// decision is the winner's own, no profile beats it, and an exact tie
/// keeps the profile that comes first in store order.
TEST(IdentifyExhaustive, PicksHighestDecisionValueAndKeepsFirstTie) {
  const core::ProfilingDataset& dataset = core::testing::tiny_dataset();
  const features::WindowConfig window{60, 30};
  const core::ProfileParams params{
      core::ClassifierType::kOcSvm, {svm::KernelType::kRbf, 0.0, 0.0, 3}, 0.2};
  std::vector<core::UserProfile> profiles;
  for (const auto& user : dataset.user_ids()) {
    profiles.push_back(core::UserProfile::train(
        user, *dataset.train_matrix(user, window),
        dataset.schema().dimension(), params));
  }
  const auto query =
      dataset.test_matrix(dataset.user_ids().front(), window)->row_vector(0);

  const core::ProfileStore store{window, dataset.schema(), profiles};
  const HeapProfileCatalog catalog{store};
  const IdentificationPlane plane{catalog};
  const IdentificationResult result = plane.identify_exhaustive(query);
  ASSERT_NE(result.best, IdentificationResult::npos);
  EXPECT_EQ(result.best_decision, core::testing::decide(profiles[result.best], query));
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const double value = core::testing::decide(profiles[i], query);
    if (i < result.best) {
      EXPECT_LT(value, result.best_decision) << profiles[i].user_id();
    } else {
      EXPECT_LE(value, result.best_decision) << profiles[i].user_id();
    }
  }

  // The winner's model again, last, under a new user id: the exact tie
  // must keep the first copy.
  profiles.push_back(core::UserProfile::from_model(
      "duplicate", params, profiles[result.best].model()));
  const core::ProfileStore with_dup_store{window, dataset.schema(),
                                          std::move(profiles)};
  const HeapProfileCatalog with_dup_catalog{with_dup_store};
  const IdentificationPlane with_dup_plane{with_dup_catalog};
  const IdentificationResult with_dup =
      with_dup_plane.identify_exhaustive(query);
  EXPECT_EQ(with_dup.best, result.best);
  EXPECT_EQ(with_dup.best_decision, result.best_decision);
}

}  // namespace
}  // namespace wtp::index
