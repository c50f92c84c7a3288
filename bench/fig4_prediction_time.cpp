// Fig. 4 reproduction: classification (prediction) time per transaction
// window for OC-SVM vs SVDD.
//
// The paper's box plot shows both classifiers deciding in well under 100us
// on a desktop CPU, with SVDD markedly faster than OC-SVM (fewer support
// vectors / simpler surface).  We report google-benchmark timings plus an
// explicit box-plot summary over per-window measurements.
// Every per-window measurement is also recorded into the global metrics
// registry (fig4.prediction{model=...}), so the paper figure and the serve
// telemetry share one measurement path; the exit code asserts the registry
// histogram saw exactly the Stopwatch values (count, min, max identical).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "core/profiler.h"
#include "obs/registry.h"
#include "util/stats.h"

using namespace wtp;

namespace {

struct Fixture {
  features::WindowConfig window{60, 30};
  util::FeatureMatrix train;
  std::vector<util::SparseVector> probes;
  std::size_t dimension = 0;

  /// The trace flags (--weeks/--scale/--seed/--full), parsed in main once
  /// google-benchmark has taken its own flags out of argv.
  inline static bench::BenchOptions options;

  static const Fixture& get() {
    static const Fixture fixture = [] {
      Fixture f;
      const auto trace = bench::make_trace(options);
      const auto dataset = bench::make_dataset(options, trace);
      const std::string user = dataset.user_ids().front();
      f.train = *dataset.train_matrix(user, f.window);
      // The user's test windows, then another user's so probes cover accept
      // and reject paths.
      for (const auto& probe_user : {user, dataset.user_ids()[1]}) {
        const auto& windows = *dataset.test_matrix(probe_user, f.window);
        for (std::size_t r = 0; r < windows.rows(); ++r) {
          f.probes.push_back(windows.row_vector(r));
        }
      }
      f.dimension = dataset.schema().dimension();
      return f;
    }();
    return fixture;
  }
};

/// One window's decision, its squared norm included: the per-window cost a
/// caller pays.
double decide(const core::UserProfile& profile, const util::SparseVector& probe) {
  return profile.decision_value(probe, probe.squared_norm());
}

core::UserProfile train_profile(core::ClassifierType type) {
  const auto& fixture = Fixture::get();
  core::ProfileParams params;
  params.type = type;
  params.kernel = {svm::KernelType::kRbf, 0.0, 0.0, 3};
  params.regularizer = type == core::ClassifierType::kOcSvm ? 0.1 : 0.02;
  return core::UserProfile::train("bench_user", fixture.train,
                                  fixture.dimension, params);
}

void classify_benchmark(benchmark::State& state, core::ClassifierType type) {
  const auto& fixture = Fixture::get();
  const auto profile = train_profile(type);
  std::size_t index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        decide(profile, fixture.probes[index % fixture.probes.size()]));
    ++index;
  }
  state.counters["support_vectors"] =
      static_cast<double>(profile.support_vector_count());
}

void BM_OcSvmPrediction(benchmark::State& state) {
  classify_benchmark(state, core::ClassifierType::kOcSvm);
}
BENCHMARK(BM_OcSvmPrediction);

void BM_SvddPrediction(benchmark::State& state) {
  classify_benchmark(state, core::ClassifierType::kSvdd);
}
BENCHMARK(BM_SvddPrediction);

/// Explicit per-window timing distribution, printed as the box-plot numbers
/// behind Fig. 4.  Returns false when the registry timer did not see exactly
/// the Stopwatch measurements.
bool report_box_plot(core::ClassifierType type) {
  const auto& fixture = Fixture::get();
  const auto profile = train_profile(type);
  const obs::Label label{"model", std::string{svm::to_string(type)}};
  obs::Timer& timer =
      obs::Registry::global().timer("fig4.prediction", {&label, 1});
  std::vector<double> micros;
  micros.reserve(fixture.probes.size());
  for (const auto& probe : fixture.probes) {
    util::Stopwatch stopwatch;
    benchmark::DoNotOptimize(decide(profile, probe));
    micros.push_back(stopwatch.elapsed_micros());
    timer.record_ns(micros.back() * 1e3);
  }
  const util::BoxPlot box = util::box_plot(micros);
  std::printf("%s prediction time (us): median=%.2f q1=%.2f q3=%.2f "
              "whiskers=[%.2f, %.2f] outliers=%zu SVs=%zu\n",
              std::string{svm::to_string(type)}.c_str(), box.median, box.q1,
              box.q3, box.whisker_low, box.whisker_high, box.outliers,
              profile.support_vector_count());
  // One measurement path: the registry histogram must agree bit-for-bit
  // with the Stopwatch vector on everything it stores exactly.
  const util::LatencyHistogram histogram = timer.collect(/*reset=*/true);
  const auto [min_it, max_it] = std::minmax_element(micros.begin(), micros.end());
  const bool identical = histogram.count() == micros.size() &&
                         histogram.min() == *min_it * 1e3 &&
                         histogram.max() == *max_it * 1e3;
  if (!identical) {
    std::fprintf(stderr, "FAIL: registry timer diverges from Stopwatch values\n");
  }
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  Fixture::options = bench::BenchOptions::parse(argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\nFig. 4 — prediction-time box plots (paper: both < 100us, "
              "SVDD faster than OC-SVM)\n");
  const bool ocsvm_ok = report_box_plot(core::ClassifierType::kOcSvm);
  const bool svdd_ok = report_box_plot(core::ClassifierType::kSvdd);
  return ocsvm_ok && svdd_ok ? 0 : 1;
}
