// Ablation A1: consecutive-window smoothing (the improvement the paper
// sketches in §V-B).  Sweeps the run length k: identity is only asserted
// when one user's model accepted k consecutive windows.  Longer runs trade
// identification latency (k * S seconds) for precision.
#include <cstdio>

#include "bench_common.h"
#include "core/grid_search.h"
#include "core/identification.h"
#include "features/split.h"
#include "util/strings.h"
#include "util/table.h"

using namespace wtp;

int main(int argc, char** argv) {
  const auto options = bench::BenchOptions::parse(argc, argv);
  const auto trace = bench::make_trace(options);
  const auto dataset = bench::make_dataset(options, trace);
  util::ThreadPool pool;

  const features::WindowConfig window{60, 30};
  const auto kernels = core::paper_kernel_grid();
  const std::vector<double> regularizers{0.5, 0.2, 0.1, 0.05};
  const auto params = core::optimize_all_users(
      dataset, window, core::ClassifierType::kOcSvm, kernels, regularizers, pool);
  const auto profiles = core::train_profiles(dataset, window, params, pool);
  const core::UserIdentifier identifier{profiles, dataset.schema(), window};

  // Concatenate events from every multi-user device in the trace.
  const auto by_device = features::group_by_device(trace.transactions);
  std::vector<core::IdentificationEvent> events;
  for (const auto& [device, txns] : by_device) {
    (void)device;
    const auto device_events = identifier.monitor(txns);
    events.insert(events.end(), device_events.begin(), device_events.end());
  }
  std::printf("# monitored %zu windows across %zu devices\n", events.size(),
              by_device.size());

  const std::vector<std::size_t> run_lengths{1, 2, 3, 5, 10};
  const auto sweep = core::smoothing_sweep(events, run_lengths);

  util::TextTable table;
  table.set_header({"run length k", "identification delay", "decisions",
                    "accuracy"});
  for (const auto& point : sweep) {
    table.add_row({std::to_string(point.run_length),
                   std::to_string(point.run_length * window.shift_s) + "s",
                   std::to_string(point.decided),
                   util::format_double(100.0 * point.accuracy(), 1) + "%"});
  }
  std::printf("%s\n", table.render("A1 — consecutive-window smoothing sweep "
                                   "(paper §V-B: e.g. 10 windows ~ 5 min)").c_str());

  // Shape: accuracy at k=10 >= accuracy at k=1 (smoothing cannot hurt
  // precision), and requiring a short consecutive run *increases* the
  // decision count: a single window is often accepted by several models
  // (undecidable), while competing models rarely survive a whole run.
  const bool accuracy_improves = sweep.back().accuracy() >= sweep.front().accuracy() - 0.02;
  const bool disambiguates = sweep.size() >= 3 && sweep[2].decided >= sweep[0].decided;
  std::printf("shape check (smoothing maintains/improves precision): %s\n",
              accuracy_improves ? "PASS" : "FAIL");
  std::printf("shape check (short runs resolve single-window ambiguity): %s\n",
              disambiguates ? "PASS" : "FAIL");
  return accuracy_improves && disambiguates ? 0 : 1;
}
