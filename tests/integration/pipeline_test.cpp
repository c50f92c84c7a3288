// End-to-end integration: synthetic trace -> log round trip -> dataset ->
// grid-searched per-user models -> test evaluation -> online identification.
// This is the paper's whole pipeline on a miniature instance.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "core/dataset.h"
#include "core/grid_search.h"
#include "core/identification.h"
#include "core/novelty.h"
#include "features/split.h"
#include "index/mapped_store.h"
#include "log/log_io.h"
#include "synthetic/generator.h"
#include "util/thread_pool.h"

namespace wtp {
namespace {

synthetic::GeneratorConfig pipeline_config() {
  synthetic::GeneratorConfig config;
  config.seed = 1234;
  config.duration_weeks = 4;
  config.activity_scale = 0.4;
  config.site_pool.num_sites = 300;
  config.site_pool.num_categories = 40;
  config.site_pool.num_media_types = 60;
  config.site_pool.num_application_types = 80;
  config.population.num_users = 8;
  config.population.num_clusters = 4;
  config.enterprise.num_users = 8;
  config.enterprise.num_devices = 6;
  return config;
}

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_ = new synthetic::EnterpriseTrace{synthetic::generate_trace(pipeline_config())};
    core::DatasetConfig dataset_config;
    dataset_config.min_transactions = 200;
    dataset_config.max_users = 8;
    dataset_config.max_training_windows = 350;
    dataset_ = new core::ProfilingDataset{trace_->transactions, dataset_config};
    pool_ = new util::ThreadPool{2};
  }
  static void TearDownTestSuite() {
    delete pool_;
    delete dataset_;
    delete trace_;
    pool_ = nullptr;
    dataset_ = nullptr;
    trace_ = nullptr;
  }

  static synthetic::EnterpriseTrace* trace_;
  static core::ProfilingDataset* dataset_;
  static util::ThreadPool* pool_;
};

synthetic::EnterpriseTrace* PipelineTest::trace_ = nullptr;
core::ProfilingDataset* PipelineTest::dataset_ = nullptr;
util::ThreadPool* PipelineTest::pool_ = nullptr;

TEST_F(PipelineTest, LogSerializationRoundTripsWholeTrace) {
  std::stringstream stream;
  log::write_log(stream, trace_->transactions);
  const auto loaded = log::read_log(stream);
  ASSERT_EQ(loaded.size(), trace_->transactions.size());
  EXPECT_EQ(loaded.front(), trace_->transactions.front());
  EXPECT_EQ(loaded.back(), trace_->transactions.back());
}

TEST_F(PipelineTest, NoveltyAssumptionHoldsOnGeneratedData) {
  const auto by_user = features::group_by_user(trace_->transactions);
  const auto curves = core::feature_novelty(by_user, trace_->config.start_time,
                                            1, 3);
  // After a week of observation the remaining novelty is limited (paper
  // Fig. 1 reports <= ~25% for all fields at week 1 on its data).
  for (const auto& [field, curve] : curves) {
    ASSERT_FALSE(curve.empty()) << to_string(field);
    EXPECT_LT(curve.front().mean, 0.6) << to_string(field);
    EXPECT_LT(curve.back().mean, curve.front().mean + 0.05) << to_string(field);
  }
}

TEST_F(PipelineTest, PerUserOptimizedModelsDifferentiateUsers) {
  const features::WindowConfig window{60, 30};
  // Reduced per-user grid for test speed: 2 kernels x 3 regularizers.
  const std::vector<svm::KernelParams> kernels{
      {svm::KernelType::kLinear, 0.0, 0.0, 3},
      {svm::KernelType::kRbf, 0.0, 0.0, 3}};
  const std::vector<double> regs{0.5, 0.2, 0.05};
  const auto params = core::optimize_all_users(
      *dataset_, window, core::ClassifierType::kOcSvm, kernels, regs, *pool_);
  const auto profiles = core::train_profiles(*dataset_, window, params, *pool_);
  const auto evaluation =
      core::evaluate_on_test(*dataset_, window, profiles, *pool_);

  // Shape criteria (DESIGN.md §5): strong diagonal, much weaker
  // off-diagonal, positive global acceptance.
  EXPECT_GT(evaluation.mean_ratios.acc_self, 50.0);
  EXPECT_GT(evaluation.mean_ratios.acc_self, evaluation.mean_ratios.acc_other + 20.0);
  EXPECT_GT(evaluation.confusion.diagonal_mean(),
            evaluation.confusion.off_diagonal_mean() + 20.0);
}

TEST_F(PipelineTest, IdentificationFindsTrueUserOnSharedDevice) {
  const features::WindowConfig window{60, 30};
  std::vector<core::UserProfile> profiles;
  for (const auto& user : dataset_->user_ids()) {
    core::ProfileParams params;
    params.type = core::ClassifierType::kOcSvm;
    params.kernel = {svm::KernelType::kRbf, 0.0, 0.0, 3};
    params.regularizer = 0.1;
    profiles.push_back(core::UserProfile::train(
        user, *dataset_->train_matrix(user, window),
        dataset_->schema().dimension(), params));
  }
  const core::UserIdentifier identifier{profiles, dataset_->schema(), window};

  // Monitor the device with the most distinct users.
  const auto by_device = features::group_by_device(trace_->transactions);
  std::string target_device;
  std::size_t best_users = 0;
  for (const auto& [device, txns] : by_device) {
    std::set<std::string> users;
    for (const auto& txn : txns) users.insert(txn.user_id);
    if (users.size() > best_users) {
      best_users = users.size();
      target_device = device;
    }
  }
  ASSERT_GE(best_users, 2u) << "generator must produce shared devices";

  const auto events = identifier.monitor(by_device.at(target_device));
  ASSERT_GT(events.size(), 10u);
  const auto metrics = core::summarize_events(events);
  // The true user's model accepts most windows, and single-window decisions
  // are mostly correct (paper Fig. 3: almost all windows identified).
  EXPECT_GT(metrics.true_acceptance(), 0.5);
  if (metrics.decided > 0) {
    EXPECT_GT(metrics.decision_accuracy(), 0.5);
  }
}

TEST_F(PipelineTest, ProfilePersistenceSurvivesPipeline) {
  const features::WindowConfig window{60, 30};
  const std::string user = dataset_->user_ids().front();
  core::ProfileParams params;
  params.type = core::ClassifierType::kSvdd;
  params.kernel = {svm::KernelType::kLinear, 0.0, 0.0, 3};
  params.regularizer = 0.4;
  const auto profile = core::UserProfile::train(
      user, *dataset_->train_matrix(user, window),
      dataset_->schema().dimension(), params);
  const std::string path = ::testing::TempDir() + "/pipeline_profile.wtpstore";
  index::write_mapped_store(
      core::ProfileStore{window, dataset_->schema(), {profile}}, path);
  const core::ProfileStore loaded = index::read_mapped_store(path);
  ASSERT_NE(loaded.find(user), nullptr);
  const auto own_test = dataset_->test_matrix(user, window);
  EXPECT_EQ(loaded.find(user)->acceptance_ratio(*own_test),
            profile.acceptance_ratio(*own_test));
}

}  // namespace
}  // namespace wtp
