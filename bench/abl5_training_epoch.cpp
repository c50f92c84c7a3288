// Ablation A5: training-history length (the paper's future work §VII asks
// whether training on only the last week/month captures seasonal behaviour
// better than the full history).
//
// We train each user's model on the most recent {1, 2, 4, all} weeks of the
// training epoch and evaluate on the same held-out test windows.
#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "core/metrics.h"
#include "features/window.h"
#include "util/strings.h"
#include "util/table.h"

using namespace wtp;

int main(int argc, char** argv) {
  const auto options = bench::BenchOptions::parse(argc, argv);
  const auto trace = bench::make_trace(options);
  const auto dataset = bench::make_dataset(options, trace);
  const auto& schema = dataset.schema();

  const features::WindowConfig window{60, 30};
  core::MatrixByUser test;
  for (const auto& user : dataset.user_ids()) {
    test.emplace(user, dataset.test_matrix(user, window));
  }

  core::ProfileParams params;
  params.type = core::ClassifierType::kOcSvm;
  params.kernel = {svm::KernelType::kRbf, 0.0, 0.0, 3};
  params.regularizer = 0.1;

  const std::vector<std::pair<std::string, int>> epochs{
      {"last 1 week", 1}, {"last 2 weeks", 2}, {"last 4 weeks", 4},
      {"full history", 0}};

  util::TextTable table;
  table.set_header({"training history", "mean windows/user", "ACCself",
                    "ACCother", "ACC"});
  for (const auto& [label, weeks] : epochs) {
    std::vector<core::UserProfile> profiles;
    std::size_t total_windows = 0;
    for (const auto& user : dataset.user_ids()) {
      const auto all_train = dataset.train_transactions(user);
      std::span<const log::WebTransaction> selected = all_train;
      if (weeks > 0 && !all_train.empty()) {
        const util::UnixSeconds cutoff =
            all_train.back().timestamp - weeks * util::kSecondsPerWeek;
        const auto first = std::partition_point(
            all_train.begin(), all_train.end(),
            [cutoff](const log::WebTransaction& t) { return t.timestamp < cutoff; });
        selected = all_train.subspan(
            static_cast<std::size_t>(first - all_train.begin()));
      }
      const features::WindowAggregator aggregator{schema, window};
      auto vectors = features::window_vectors(aggregator.aggregate(selected));
      vectors = core::ProfilingDataset::subsample(
          std::move(vectors), dataset.config().max_training_windows);
      if (vectors.empty()) continue;
      total_windows += vectors.size();
      profiles.push_back(core::UserProfile::train(
          user, util::FeatureMatrix::from_rows(vectors), schema.dimension(),
          params));
    }
    if (profiles.empty()) continue;
    const auto ratios = core::mean_acceptance(profiles, test);
    table.add_row({label,
                   std::to_string(total_windows / profiles.size()),
                   util::format_double(ratios.acc_self, 1),
                   util::format_double(ratios.acc_other, 1),
                   util::format_double(ratios.acc(), 1)});
  }
  std::printf("%s\n", table.render("A5 — ACC vs training-history length "
                                   "(OC-SVM, rbf, nu=0.1)").c_str());
  return 0;
}
