// Ablation A4: the NetFlow baseline (Verde et al., ICDCS'14 — per-user
// HMMs over flow records) versus this paper's transaction windows.
//
// The paper's qualitative claim (§VI): flow-record methods need hours to
// days of observation to identify a user, while augmented transaction
// windows identify in about a minute.  We train both on the same traces and
// sweep the observation duration given to each identifier.
#include <cstdio>

#include "baseline/flow_profiler.h"
#include "bench_common.h"
#include "core/grid_search.h"
#include "core/identification.h"
#include "features/split.h"
#include "util/strings.h"
#include "util/table.h"

using namespace wtp;

namespace {

/// Slices `txns` into consecutive observation windows of `duration`
/// seconds, skipping slices with fewer than 3 transactions.
std::vector<std::span<const log::WebTransaction>> slices(
    std::span<const log::WebTransaction> txns, util::UnixSeconds duration,
    std::size_t max_slices) {
  std::vector<std::span<const log::WebTransaction>> out;
  std::size_t begin = 0;
  while (begin < txns.size() && out.size() < max_slices) {
    const util::UnixSeconds start = txns[begin].timestamp;
    std::size_t end = begin;
    while (end < txns.size() && txns[end].timestamp < start + duration) ++end;
    if (end - begin >= 3) out.push_back(txns.subspan(begin, end - begin));
    begin = end;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::BenchOptions::parse(argc, argv);
  const auto trace = bench::make_trace(options);
  const auto dataset = bench::make_dataset(options, trace);
  util::ThreadPool pool;

  // --- NetFlow baseline: per-user HMMs over quantized flows -------------
  std::map<std::string, std::vector<log::WebTransaction>> flow_train;
  for (const auto& user : dataset.user_ids()) {
    const auto span = dataset.train_transactions(user);
    flow_train.emplace(user, std::vector<log::WebTransaction>{span.begin(), span.end()});
  }
  util::Stopwatch stopwatch;
  baseline::FlowProfiler flow_profiler;
  flow_profiler.train(flow_train);
  std::printf("# flow baseline: trained %zu HMMs in %.1fs\n",
              flow_profiler.users().size(), stopwatch.elapsed_seconds());

  // --- transaction-window profiles (this paper) --------------------------
  const features::WindowConfig window{60, 30};
  const auto kernels = core::paper_kernel_grid();
  const std::vector<double> regularizers{0.5, 0.2, 0.1, 0.05};
  const auto params = core::optimize_all_users(
      dataset, window, core::ClassifierType::kOcSvm, kernels, regularizers, pool);
  const auto profiles = core::train_profiles(dataset, window, params, pool);
  std::map<std::string, const core::UserProfile*> profile_of;
  for (const auto& profile : profiles) profile_of[profile.user_id()] = &profile;

  // --- sweep observation duration ---------------------------------------
  const std::vector<std::pair<std::string, util::UnixSeconds>> durations{
      {"1m", 60},       {"5m", 300},        {"30m", 1800},
      {"2h", 7200},     {"8h", 28800},      {"24h", 86400}};
  constexpr std::size_t kMaxSlicesPerUser = 12;

  util::TextTable table;
  table.set_header({"observation", "flow-HMM accuracy", "flow samples",
                    "txn-window accuracy", "window samples"});
  double flow_1m = -1.0;
  double flow_best = 0.0;
  double windows_1m = -1.0;
  for (const auto& [label, duration] : durations) {
    std::size_t flow_correct = 0;
    std::size_t flow_total = 0;
    std::size_t window_correct = 0;
    std::size_t window_total = 0;
    for (const auto& user : dataset.user_ids()) {
      const auto test = dataset.test_transactions(user);
      for (const auto slice : slices(test, duration, kMaxSlicesPerUser)) {
        // Flow baseline identification.
        const std::string flow_guess = flow_profiler.identify(slice);
        if (!flow_guess.empty()) {
          ++flow_total;
          if (flow_guess == user) ++flow_correct;
        }
        // Transaction-window identification: the user whose model accepts
        // the largest share of the slice's windows.
        const features::WindowAggregator aggregator{dataset.schema(), window};
        const auto windows = util::FeatureMatrix::from_rows(
            features::window_vectors(aggregator.aggregate(slice)));
        if (windows.empty()) continue;
        std::string best_user;
        double best_ratio = -1.0;
        for (const auto& candidate : dataset.user_ids()) {
          const double ratio = profile_of.at(candidate)->acceptance_ratio(windows);
          if (ratio > best_ratio) {
            best_ratio = ratio;
            best_user = candidate;
          }
        }
        ++window_total;
        if (best_user == user) ++window_correct;
      }
    }
    const double flow_accuracy =
        flow_total ? 100.0 * static_cast<double>(flow_correct) /
                         static_cast<double>(flow_total)
                   : 0.0;
    const double window_accuracy =
        window_total ? 100.0 * static_cast<double>(window_correct) /
                           static_cast<double>(window_total)
                     : 0.0;
    if (label == "1m") {
      flow_1m = flow_accuracy;
      windows_1m = window_accuracy;
    }
    flow_best = std::max(flow_best, flow_accuracy);
    table.add_row({label, util::format_double(flow_accuracy, 1) + "%",
                   std::to_string(flow_total),
                   util::format_double(window_accuracy, 1) + "%",
                   std::to_string(window_total)});
  }
  std::printf("%s\n",
              table.render("A4 — identification accuracy vs observation "
                           "length: flow-record HMM baseline vs transaction "
                           "windows").c_str());

  // Shape: at 1 minute, transaction windows must beat the flow baseline
  // decisively (the paper's central speed claim).
  const bool windows_win_fast = windows_1m > flow_1m + 10.0;
  std::printf("shape check (txn windows >> flows at 1 minute): %s "
              "(windows %.1f%% vs flows %.1f%%)\n",
              windows_win_fast ? "PASS" : "FAIL", windows_1m, flow_1m);
  std::printf("flow baseline best accuracy over the sweep: %.1f%%\n", flow_best);
  return windows_win_fast ? 0 : 1;
}
