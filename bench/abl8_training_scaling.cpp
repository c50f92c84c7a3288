// Ablation A8: SMO training cost and model quality vs training-set size.
//
// DESIGN.md's dataset pipeline caps the windows used to train one model
// (max_training_windows, default 800-1500) because SMO cost grows
// super-linearly in the number of windows.  This bench quantifies that
// trade-off: training time, support-vector count and held-out ACC as the
// cap varies — showing the cap is safe (quality saturates long before the
// cost does).
#include <cstdio>

#include "bench_common.h"
#include "core/metrics.h"
#include "util/strings.h"
#include "util/table.h"

using namespace wtp;

int main(int argc, char** argv) {
  const auto options = bench::BenchOptions::parse(argc, argv);
  const auto trace = bench::make_trace(options);
  // Uncapped dataset: the sweep applies its own caps.
  core::DatasetConfig dataset_config = bench::dataset_config(options);
  dataset_config.max_training_windows = 0;  // no cap
  const core::ProfilingDataset dataset{trace.transactions, dataset_config};
  std::printf("# dataset: %zu users kept, %zu feature columns\n",
              dataset.user_count(), dataset.schema().dimension());

  const features::WindowConfig window{60, 30};
  // Use the most active user (largest window count).
  std::string user;
  std::size_t most_windows = 0;
  for (const auto& candidate : dataset.user_ids()) {
    const std::size_t windows_of = dataset.train_matrix(candidate, window)->rows();
    if (windows_of > most_windows) {
      most_windows = windows_of;
      user = candidate;
    }
  }
  std::printf("# sweep user: %s (%zu available training windows)\n\n",
              user.c_str(), most_windows);
  const auto own_test = *dataset.test_matrix(user, window);
  const auto other_test = *dataset.test_matrix(
      dataset.user_ids()[user == dataset.user_ids()[0] ? 1 : 0], window);

  util::TextTable table;
  table.set_header({"windows", "oc-svm train", "SVs", "self acc", "other acc",
                    "svdd train", "SVs", "self acc", "other acc"});
  std::vector<double> sizes;
  std::vector<double> times;
  for (const std::size_t cap : {100u, 200u, 400u, 800u, 1600u, 3200u}) {
    if (cap > most_windows) break;
    const auto capped =
        core::ProfilingDataset::subsample(*dataset.train_matrix(user, window), cap);
    std::vector<std::string> row{std::to_string(capped.rows())};
    for (const auto type :
         {core::ClassifierType::kOcSvm, core::ClassifierType::kSvdd}) {
      core::ProfileParams params;
      params.type = type;
      params.kernel = {svm::KernelType::kRbf, 0.0, 0.0, 3};
      params.regularizer = type == core::ClassifierType::kOcSvm ? 0.1 : 0.02;
      util::Stopwatch stopwatch;
      const auto profile = core::UserProfile::train(
          user, capped, dataset.schema().dimension(), params);
      const double seconds = stopwatch.elapsed_seconds();
      if (type == core::ClassifierType::kOcSvm) {
        sizes.push_back(static_cast<double>(capped.rows()));
        times.push_back(seconds);
      }
      row.push_back(util::format_double(seconds, 3) + "s");
      row.push_back(std::to_string(profile.support_vector_count()));
      row.push_back(
          util::format_double(100.0 * profile.acceptance_ratio(own_test), 1));
      row.push_back(
          util::format_double(100.0 * profile.acceptance_ratio(other_test), 1));
    }
    table.add_row(row);
  }
  std::printf("%s\n", table.render("A8 — training cost/quality vs window "
                                   "count (rbf kernel)").c_str());

  // Shape: cost grows super-linearly while self-acceptance saturates.
  bool superlinear = false;
  if (sizes.size() >= 3) {
    const double ratio_size = sizes.back() / sizes[sizes.size() - 2];
    const double ratio_time =
        times.back() / std::max(1e-9, times[times.size() - 2]);
    superlinear = ratio_time > ratio_size * 0.9;  // at least ~linear growth
  }
  std::printf("shape check (training cost grows at least linearly): %s\n",
              superlinear ? "PASS" : "FAIL");
  return superlinear ? 0 : 1;
}
