// Ablation A3: alternative one-class classifiers (the paper's future work
// §VII proposes auto-encoders and probabilistic models).  Compares all six
// model families on the same windows/protocol: per-user fit on training
// windows, ACC_self/ACC_other on held-out test windows, plus fit and
// prediction timing.
#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "core/metrics.h"
#include "oneclass/svm_adapter.h"
#include "util/strings.h"
#include "util/table.h"

using namespace wtp;

int main(int argc, char** argv) {
  const auto options = bench::BenchOptions::parse(argc, argv);
  const auto trace = bench::make_trace(options);
  const auto dataset = bench::make_dataset(options, trace);
  const auto& schema = dataset.schema();

  const features::WindowConfig window{60, 30};
  // Subset of users to keep the autoencoder sweep affordable on one core.
  std::vector<std::string> users = dataset.user_ids();
  if (!options.full && users.size() > 10) users.resize(10);

  // Training windows capped at 400 per user below paper scale (0 = no cap).
  const std::size_t cap = options.full ? 0 : 400;
  std::map<std::string, util::FeatureMatrix> train;
  std::map<std::string, util::FeatureMatrix> test;
  for (const auto& user : users) {
    train.emplace(user, core::ProfilingDataset::subsample(
                            *dataset.train_matrix(user, window), cap));
    test.emplace(user, *dataset.test_matrix(user, window));
  }

  const double nu = 0.1;
  util::TextTable table;
  table.set_header({"model", "ACCself", "ACCother", "ACC", "fit time/user",
                    "predict time/window"});

  struct Score {
    std::string name;
    double acc = 0.0;
  };
  std::vector<Score> scores;

  for (const auto kind :
       {oneclass::ModelKind::kOcSvm, oneclass::ModelKind::kSvdd,
        oneclass::ModelKind::kCentroid, oneclass::ModelKind::kGaussian,
        oneclass::ModelKind::kKde, oneclass::ModelKind::kAutoencoder,
        oneclass::ModelKind::kIsolationForest, oneclass::ModelKind::kKnn}) {
    double self_sum = 0.0;
    double other_sum = 0.0;
    double fit_seconds = 0.0;
    double predict_seconds = 0.0;
    std::size_t predictions = 0;
    for (const auto& user : users) {
      auto model = oneclass::make_model(kind, nu);
      util::Stopwatch fit_watch;
      model->fit(train.at(user), schema.dimension());
      fit_seconds += fit_watch.elapsed_seconds();

      double other_acc = 0.0;
      std::size_t other_users = 0;
      std::vector<double> decisions;
      for (const auto& [other_user, windows] : test) {
        decisions.resize(windows.rows());
        util::Stopwatch predict_watch;
        model->decision_values(windows, decisions);
        const auto accepted = std::ranges::count_if(
            decisions, [](double value) { return value >= 0.0; });
        predict_seconds += predict_watch.elapsed_seconds();
        predictions += windows.rows();
        const double ratio =
            windows.empty() ? 0.0
                            : 100.0 * static_cast<double>(accepted) /
                                  static_cast<double>(windows.rows());
        if (other_user == user) {
          self_sum += ratio;
        } else {
          other_acc += ratio;
          ++other_users;
        }
      }
      if (other_users > 0) other_sum += other_acc / static_cast<double>(other_users);
    }
    const double n = static_cast<double>(users.size());
    const double acc_self = self_sum / n;
    const double acc_other = other_sum / n;
    scores.push_back({std::string{to_string(kind)}, acc_self - acc_other});
    table.add_row({std::string{to_string(kind)},
                   util::format_double(acc_self, 1),
                   util::format_double(acc_other, 1),
                   util::format_double(acc_self - acc_other, 1),
                   util::format_double(fit_seconds / n, 2) + "s",
                   util::format_double(1e6 * predict_seconds /
                                           static_cast<double>(predictions),
                                       1) + "us"});
  }
  std::printf("%s\n", table.render("A3 — one-class model families "
                                   "(nu=0.1, D=60s S=30s, " +
                                   std::to_string(users.size()) + " users)")
                          .c_str());

  // Shape: every family except the isolation forest must separate users
  // (positive ACC).  The isolation forest is structurally blind here: its
  // trees can only split on columns that vary inside the profiled user's
  // sample, and an impostor's activity lives on columns that are constant
  // zero there — so impostor windows isolate no faster than the user's own
  // and the model accepts nearly everything.  The distance/density families
  // avoid this because unseen active columns contribute to their metrics.
  bool all_positive = true;
  for (const auto& score : scores) {
    if (score.name == "isolation-forest") continue;
    all_positive &= score.acc > 0.0;
  }
  std::printf("shape check (every metric/density/SVM family separates users, "
              "ACC > 0): %s\n",
              all_positive ? "PASS" : "FAIL");
  std::printf("note: isolation-forest is expected to degenerate on disjoint "
              "sparse supports (see comment in source)\n");
  return all_positive ? 0 : 1;
}
