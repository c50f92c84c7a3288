// Ablation A6: the full TPR/FPR trade-off behind the paper's single
// operating point.
//
// The paper reports only the threshold-0 point of each model (~90% TPR at
// 7.3% FPR for OC-SVM).  Sweeping the decision threshold produces the ROC
// curve per user; we report the mean AUC, the natural operating point and
// the best-Youden point, for both classifier families.
#include <cstdio>

#include "bench_common.h"
#include "core/metrics.h"
#include "core/roc.h"
#include "util/strings.h"
#include "util/table.h"

using namespace wtp;

int main(int argc, char** argv) {
  const auto options = bench::BenchOptions::parse(argc, argv);
  const auto trace = bench::make_trace(options);
  const auto dataset = bench::make_dataset(options, trace);

  const features::WindowConfig window{60, 30};

  util::TextTable table;
  table.set_header({"classifier", "mean AUC", "TPR@thr0", "FPR@thr0",
                    "TPR@Youden", "FPR@Youden", "FPR@TPR>=90%"});
  double mean_aucs[2] = {0.0, 0.0};
  int row = 0;
  for (const auto type : {core::ClassifierType::kOcSvm, core::ClassifierType::kSvdd}) {
    double auc_sum = 0.0;
    double tpr0_sum = 0.0;
    double fpr0_sum = 0.0;
    double tprj_sum = 0.0;
    double fprj_sum = 0.0;
    double fpr90_sum = 0.0;
    std::size_t users = 0;
    for (const auto& user : dataset.user_ids()) {
      core::ProfileParams params;
      params.type = type;
      params.kernel = {svm::KernelType::kRbf, 0.0, 0.0, 3};
      params.regularizer = type == core::ClassifierType::kOcSvm ? 0.1 : 0.02;
      const auto profile = core::UserProfile::train(
          user, *dataset.train_matrix(user, window), dataset.schema().dimension(),
          params);

      std::vector<double> positive;
      std::vector<double> negative;
      for (const auto& other : dataset.user_ids()) {
        const auto windows = dataset.test_matrix(other, window);
        auto& sink = other == user ? positive : negative;
        const std::size_t begin = sink.size();
        sink.resize(begin + windows->rows());
        profile.decision_values(*windows, std::span{sink}.subspan(begin));
      }
      if (positive.empty() || negative.empty()) continue;
      const core::RocCurve curve = core::roc_curve(positive, negative);
      const core::RocPoint& at0 = curve.at_threshold(0.0);
      const core::RocPoint& youden = curve.best_youden();
      auc_sum += curve.auc;
      tpr0_sum += at0.tpr;
      fpr0_sum += at0.fpr;
      tprj_sum += youden.tpr;
      fprj_sum += youden.fpr;
      fpr90_sum += curve.fpr_at_tpr(0.9);
      ++users;
    }
    const double n = static_cast<double>(users);
    mean_aucs[row++] = auc_sum / n;
    table.add_row({std::string{svm::to_string(type)},
                   util::format_double(auc_sum / n, 3),
                   util::format_double(100.0 * tpr0_sum / n, 1),
                   util::format_double(100.0 * fpr0_sum / n, 1),
                   util::format_double(100.0 * tprj_sum / n, 1),
                   util::format_double(100.0 * fprj_sum / n, 1),
                   util::format_double(100.0 * fpr90_sum / n, 1)});
  }
  std::printf("%s\n", table.render("A6 — ROC analysis per classifier "
                                   "(rbf kernel, fixed regularizer, "
                                   "D=60s S=30s; percentages)").c_str());

  const bool discriminative = mean_aucs[0] > 0.8 && mean_aucs[1] > 0.8;
  std::printf("shape check (mean AUC > 0.8 for both families): %s\n",
              discriminative ? "PASS" : "FAIL");
  return discriminative ? 0 : 1;
}
