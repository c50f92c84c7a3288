// Quickstart: the whole API in ~80 lines.
//
//   1. Generate a synthetic enterprise web-transaction trace (stand-in for
//      a secure-proxy log).
//   2. Build a ProfilingDataset: user filtering, feature schema, 75/25
//      chronological split.
//   3. Train a one-class profile (OC-SVM) for one user on 60s/30s windows.
//   4. Classify held-out windows of that user and of another user.
//   5. Persist the profile in a profile store and load it back.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <filesystem>

#include "core/dataset.h"
#include "core/profiler.h"
#include "index/mapped_store.h"
#include "synthetic/generator.h"

using namespace wtp;

int main() {
  // 1. A small enterprise: 12 users, 8 devices, 3 weeks of traffic.
  synthetic::GeneratorConfig generator;
  generator.seed = 2024;
  generator.duration_weeks = 3;
  generator.activity_scale = 0.5;
  generator.population.num_users = 12;
  generator.enterprise.num_users = 12;
  generator.enterprise.num_devices = 8;
  const synthetic::EnterpriseTrace trace = synthetic::generate_trace(generator);
  std::printf("generated %zu web transactions\n", trace.transactions.size());

  // 2. Dataset preparation (the paper's §IV pipeline).
  core::DatasetConfig dataset_config;
  dataset_config.min_transactions = 500;
  const core::ProfilingDataset dataset{trace.transactions, dataset_config};
  std::printf("kept %zu users; feature space has %zu columns\n",
              dataset.user_count(), dataset.schema().dimension());

  // 3. Train a profile for the first user: 60-second windows shifted by
  //    30 seconds (the paper's retained configuration), OC-SVM with an RBF
  //    kernel and nu = 0.1.
  const std::string user = dataset.user_ids().front();
  const features::WindowConfig window{60, 30};
  core::ProfileParams params;
  params.type = core::ClassifierType::kOcSvm;
  params.kernel = {svm::KernelType::kRbf, /*gamma=*/0.0 /*auto*/, 0.0, 3};
  params.regularizer = 0.1;  // nu
  const auto own_train = dataset.train_matrix(user, window);
  const core::UserProfile profile = core::UserProfile::train(
      user, *own_train, dataset.schema().dimension(), params);
  std::printf("trained %s profile for %s on %zu windows (%zu support vectors)\n",
              std::string{svm::to_string(params.type)}.c_str(), user.c_str(),
              own_train->rows(), profile.support_vector_count());

  // 4. Classify held-out windows.
  const auto own_test = *dataset.test_matrix(user, window);
  const auto other_user = dataset.user_ids()[1];
  const auto other_test = *dataset.test_matrix(other_user, window);
  std::printf("acceptance of %s's future windows: %.1f%%\n", user.c_str(),
              100.0 * profile.acceptance_ratio(own_test));
  std::printf("acceptance of %s's windows:        %.1f%%\n", other_user.c_str(),
              100.0 * profile.acceptance_ratio(other_test));

  // 5. Persist the profile as a mapped profile store (window + schema +
  //    models) and reload it; the reloaded model borrows the mapping.
  const std::string path =
      (std::filesystem::temp_directory_path() / "wtp_quickstart.wtpstore").string();
  index::write_mapped_store(
      core::ProfileStore{window, dataset.schema(), {profile}}, path);
  const core::ProfileStore loaded = index::read_mapped_store(path);
  std::filesystem::remove(path);
  std::printf("reloaded profile decides identically: %s\n",
              loaded.find(user)->acceptance_ratio(own_test) ==
                      profile.acceptance_ratio(own_test)
                  ? "yes"
                  : "no");
  return 0;
}
