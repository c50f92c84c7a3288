// Tab. IV reproduction: averaged test-set acceptance ratios for OC-SVM and
// SVDD across the six (D, S) configurations, with per-user optimized kernel
// and nu/C parameters.
//
// Paper values at the retained D=60s,S=30s: OC-SVM ACCself 89.6 /
// ACCother 7.3; SVDD ACCself 89.4 / ACCother 10.7 — i.e. ~90% true positive
// rate at ~7-11% false positive rate, with OC-SVM the lower-FPR model.
//
// Default mode optimizes each user's parameters once at D=60s,S=30s and
// reuses them for the other configurations (the choice barely moves and a
// 1-core full re-optimization per configuration is slow); --full
// re-optimizes per configuration as the paper does.
#include <cstdio>

#include "bench_common.h"
#include "core/grid_search.h"
#include "util/strings.h"
#include "util/table.h"

using namespace wtp;

namespace {

std::string window_label(util::UnixSeconds seconds) {
  if (seconds % 60 == 0 && seconds >= 60) return std::to_string(seconds / 60) + "m";
  return std::to_string(seconds) + "s";
}

struct RowSet {
  std::vector<std::string> self{"ACCself"};
  std::vector<std::string> other{"ACCother"};
  std::vector<std::string> acc{"ACC"};
};

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::BenchOptions::parse(argc, argv);
  const auto trace = bench::make_trace(options);
  const auto dataset = bench::make_dataset(options, trace);
  util::ThreadPool pool;

  const auto kernels = core::paper_kernel_grid();
  // Reduced regularizer grid for the default run; --full uses the paper's.
  const std::vector<double> regularizers =
      options.full ? core::paper_regularizer_grid()
                   : std::vector<double>{0.5, 0.2, 0.1, 0.05};

  const auto window_grid = core::paper_window_grid();
  const features::WindowConfig retained{60, 30};

  double headline_self[2] = {0.0, 0.0};
  double headline_other[2] = {0.0, 0.0};

  util::TextTable table;
  std::vector<std::string> duration_row{"Window duration (D)"};
  std::vector<std::string> shift_row{"shift (S)"};
  for (const auto& window : window_grid) {
    duration_row.push_back(window_label(window.duration_s));
    shift_row.push_back(window_label(window.shift_s));
  }
  table.add_row(duration_row);
  table.add_row(shift_row);

  for (const auto type : {core::ClassifierType::kOcSvm, core::ClassifierType::kSvdd}) {
    util::Stopwatch stopwatch;
    // Optimize per-user parameters at the retained window configuration.
    const auto retained_params = core::optimize_all_users(
        dataset, retained, type, kernels, regularizers, pool);
    RowSet rows;
    for (const auto& window : window_grid) {
      const auto params =
          options.full
              ? core::optimize_all_users(dataset, window, type, kernels,
                                         regularizers, pool)
              : retained_params;
      const auto profiles = core::train_profiles(dataset, window, params, pool);
      const auto evaluation = core::evaluate_on_test(dataset, window, profiles, pool);
      rows.self.push_back(util::format_double(evaluation.mean_ratios.acc_self, 1));
      rows.other.push_back(util::format_double(evaluation.mean_ratios.acc_other, 1));
      rows.acc.push_back(util::format_double(evaluation.mean_ratios.acc(), 1));
      if (window == retained) {
        const int index = type == core::ClassifierType::kOcSvm ? 0 : 1;
        headline_self[index] = evaluation.mean_ratios.acc_self;
        headline_other[index] = evaluation.mean_ratios.acc_other;
      }
    }
    table.add_row({std::string{svm::to_string(type)}});
    table.add_row(rows.self);
    table.add_row(rows.other);
    table.add_row(rows.acc);
    std::printf("# %s sweep time: %.1fs\n",
                std::string{svm::to_string(type)}.c_str(),
                stopwatch.elapsed_seconds());
  }

  std::printf("%s\n", table.render("Tab. IV — averaged test acceptance, "
                                   "per-user optimized parameters").c_str());
  std::printf("headline @ D=60s,S=30s (paper: oc-svm 89.6/7.3, svdd 89.4/10.7):\n");
  std::printf("  oc-svm ACCself=%.1f ACCother=%.1f\n", headline_self[0],
              headline_other[0]);
  std::printf("  svdd   ACCself=%.1f ACCother=%.1f\n", headline_self[1],
              headline_other[1]);

  // Shape checks: high TPR, much lower FPR for both classifiers.
  const bool tpr_high = headline_self[0] > 60.0 && headline_self[1] > 60.0;
  const bool fpr_low = headline_other[0] < headline_self[0] - 30.0 &&
                       headline_other[1] < headline_self[1] - 30.0;
  std::printf("shape check (TPR high): %s\n", tpr_high ? "PASS" : "FAIL");
  std::printf("shape check (FPR much lower than TPR): %s\n",
              fpr_low ? "PASS" : "FAIL");
  return tpr_high && fpr_low ? 0 : 1;
}
