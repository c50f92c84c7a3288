// Ablation A7: profile staleness and drift detection (paper §VII's
// seasonal-behaviour concern, operationalized).
//
// A profile trained on one user is monitored on (a) that user's own future
// windows and (b) a behaviour change simulated by switching the monitored
// stream to a different user mid-way.  The DriftMonitor must stay quiet on
// (a) and fire promptly on (b).
#include <cstdio>

#include "bench_common.h"
#include "core/drift.h"
#include "core/metrics.h"
#include "util/strings.h"
#include "util/table.h"

using namespace wtp;

int main(int argc, char** argv) {
  const auto options = bench::BenchOptions::parse(argc, argv);
  const auto trace = bench::make_trace(options);
  const auto dataset = bench::make_dataset(options, trace);

  const features::WindowConfig window{60, 30};
  core::ProfileParams params;
  params.type = core::ClassifierType::kOcSvm;
  params.kernel = {svm::KernelType::kRbf, 0.0, 0.0, 3};
  params.regularizer = 0.1;

  util::TextTable table;
  table.set_header({"user", "self acc", "false alarm", "windows to detect switch"});
  std::size_t false_alarms = 0;
  std::size_t detected = 0;
  std::size_t evaluated = 0;
  double mean_detection_delay = 0.0;

  const auto& users = dataset.user_ids();
  const std::size_t user_limit = options.full ? users.size() : 10;
  for (std::size_t u = 0; u < users.size() && u < user_limit; ++u) {
    const auto& user = users[u];
    const auto& other = users[(u + 1) % users.size()];
    const auto profile = core::UserProfile::train(
        user, *dataset.train_matrix(user, window), dataset.schema().dimension(),
        params);
    const auto self_windows = dataset.test_matrix(user, window);
    const auto other_windows = dataset.test_matrix(other, window);
    if (self_windows->rows() < 50 || other_windows->rows() < 50) continue;
    ++evaluated;

    const double self_rate = profile.acceptance_ratio(*self_windows);
    core::DriftConfig config;
    config.expected_rate = self_rate;
    std::vector<double> self_decisions(self_windows->rows());
    profile.decision_values(*self_windows, self_decisions);
    std::vector<double> other_decisions(other_windows->rows());
    profile.decision_values(*other_windows, other_decisions);

    // (a) steady phase: the user's own windows only.
    core::DriftMonitor steady{config};
    for (const double d : self_decisions) steady.observe(d >= 0.0);
    const bool false_alarm = steady.drift_detected();
    if (false_alarm) ++false_alarms;

    // (b) behaviour switch: own windows, then another user's.
    core::DriftMonitor switching{config};
    for (const double d : self_decisions) switching.observe(d >= 0.0);
    std::size_t delay = 0;
    for (const double d : other_decisions) {
      if (switching.drift_detected()) break;
      switching.observe(d >= 0.0);
      ++delay;
    }
    const bool fired = switching.drift_detected();
    if (fired && !false_alarm) {
      ++detected;
      mean_detection_delay += static_cast<double>(delay);
    }
    table.add_row({user, util::format_double(100.0 * self_rate, 1) + "%",
                   false_alarm ? "YES" : "no",
                   fired ? std::to_string(delay) : "never"});
  }
  if (detected > 0) mean_detection_delay /= static_cast<double>(detected);
  std::printf("%s\n", table.render("A7 — drift detection on profile streams "
                                   "(OC-SVM, rbf, nu=0.1)").c_str());
  std::printf("evaluated users: %zu, false alarms: %zu, switches detected: %zu"
              ", mean delay %.1f windows (~%.1f min at S=30s)\n",
              evaluated, false_alarms, detected, mean_detection_delay,
              mean_detection_delay * 0.5);

  const bool quiet = false_alarms * 4 <= evaluated;        // <= 25% false alarms
  const bool sensitive = detected * 2 >= evaluated;        // >= 50% detected
  std::printf("shape check (few false alarms on steady behaviour): %s\n",
              quiet ? "PASS" : "FAIL");
  std::printf("shape check (behaviour switches detected): %s\n",
              sensitive ? "PASS" : "FAIL");
  return quiet && sensitive ? 0 : 1;
}
