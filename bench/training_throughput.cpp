// Training-plane throughput at the paper's shape: one user's stage-2 grid
// column sweep — 843 feature columns (Tab. I), ~25 non-zeros per window,
// 400 training windows, 4 kernels x 6 regularizers — trained two ways:
//
//   cold:  every cell from scratch, shrinking off, fresh QMatrix per cell
//          (the seed behaviour);
//   fast:  shrinking on, one warm-started fit_path per kernel column — a
//          shared QMatrix and hot kernel-row cache across the column, each
//          solve seeded from the previous cell's alpha.
//
// Both paths must pick the identical (kernel, regularizer) winner with
// identical ACC scores (the program exits 1 otherwise); the fast path must
// show its kernel-cache reuse through PathStats.  Scoring uses the same
// slack convention as the production grid (decision >= -1e-4 with solves at
// eps 1e-6), which pins ACC to the converged QP rather than to whichever
// near-optimal point a solve stopped at.
// With --overhead, instead measures the observability plane's cost on the
// fast sweep: tracing disabled vs. enabled-but-unexported, asserted < 3%.
//
// A grid section then runs the whole Tab. III grid (4 kernels x 15
// regularizers, OC-SVM) at the layer ledger's train25 shape — 25 users x
// 150 training windows, 558 columns, a 4-thread pool — through the pair
// scorer (core::score_param_grid), after checking that its ratios and
// chosen parameters are bitwise those of the per-cell oracle
// (profile_acceptance on each fit_path model); it exits 1 otherwise.
// A windows section runs first, at the same shape: the layer ledger's
// train25 trace, its 25 most active users and 150 training windows each.
// It checks the streaming window fold and the dataset's batch train/test
// matrices bitwise against the sort-based oracle of
// tests/features/window_reference.h (exiting 1 on any difference), then
// times the fold per transaction and the batch matrices.
// A trace section runs before it, on the same trace: generate_trace on a
// 4-thread pool must equal the serial reference of
// tests/synthetic/trace_reference.h row for row and field for field (the
// program exits 1 otherwise); then both are timed.
#include <cstdio>
#include <cstring>
#include <memory>
#include <algorithm>
#include <cstdlib>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench_json.h"
#include "core/dataset.h"
#include "core/grid_search.h"
#include "features/streaming.h"
#include "features/window_reference.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "svm/kernel_cache.h"
#include "svm/svm_model.h"
#include "synthetic/generator.h"
#include "synthetic/pools.h"
#include "synthetic/trace_reference.h"
#include "util/feature_matrix.h"
#include "util/rng.h"
#include "util/sparse_vector.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

using namespace wtp;

namespace {

constexpr std::size_t kDim = 843;     // Tab. I schema width
constexpr std::size_t kMeanNnz = 25;  // typical window sparsity
constexpr std::size_t kWindows = 400; // one user's training-window count
constexpr std::size_t kProfileCols = 120;
constexpr double kEps = 1e-6;         // stage-2 grid solve tolerance
constexpr double kSlack = 1e-4;       // stage-2 acceptance slack
constexpr std::size_t kPasses = 7;    // best-of passes (sweeps run tens of ms)

/// Windows drawn from a column-habit profile: each user touches a fixed
/// subset of the schema (which is what separates self from other), plus
/// schema-wide noise entries so the one-class boundary is genuinely hard to
/// fit — as with real transaction windows — rather than a tight cluster the
/// solver separates in a handful of iterations.
util::FeatureMatrix habit_windows(util::Rng& rng, std::size_t count,
                                  std::size_t first_col) {
  std::vector<util::SparseVector> rows;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<util::SparseVector::Entry> entries;
    const std::size_t nnz = kMeanNnz / 2 + rng.uniform_index(kMeanNnz);
    for (std::size_t k = 0; k < nnz; ++k) {
      const std::size_t col =
          rng.bernoulli(0.25)
              ? rng.uniform_index(kDim)
              : (first_col + rng.uniform_index(kProfileCols)) % kDim;
      entries.push_back({col, rng.uniform(0.1, 3.0)});
    }
    rows.emplace_back(std::move(entries));
  }
  return util::FeatureMatrix::from_rows(rows, kDim);
}

std::vector<svm::KernelParams> kernel_grid() {
  const double gamma = 1.0 / static_cast<double>(kDim);
  return {{svm::KernelType::kLinear, gamma, 0.0, 3},
          {svm::KernelType::kPolynomial, gamma, 1.0, 3},
          {svm::KernelType::kRbf, gamma, 0.0, 3},
          {svm::KernelType::kSigmoid, gamma, 0.0, 3}};
}

/// nu column for OC-SVM (Tab. III values); the SVDD column follows the
/// paper's C = 1/(nu*l) mapping, which at l = 400 lands near 1/l — the
/// regime real stage-2 sweeps operate in.
std::vector<double> regularizer_grid(svm::SvmKind kind) {
  if (kind == svm::SvmKind::kSvdd) return {0.1, 0.05, 0.02, 0.01, 0.005, 0.0025};
  return {0.999, 0.9, 0.5, 0.1, 0.05, 0.01};
}

/// ACC = ACC_self - ACC_other, percent, with the grid's acceptance slack.
double acc_score(const svm::SvmModel& model, const util::FeatureMatrix& self,
                 const util::FeatureMatrix& other) {
  std::vector<double> values(self.rows());
  const auto count = [&](const util::FeatureMatrix& windows) {
    values.resize(windows.rows());
    model.decision_values(windows, values);
    std::size_t accepted = 0;
    for (const double v : values) {
      if (v >= -kSlack) ++accepted;
    }
    return 100.0 * static_cast<double>(accepted) /
           static_cast<double>(windows.rows());
  };
  const double acc_self = count(self);
  const double acc_other = count(other);
  return acc_self - acc_other;
}

struct SweepResult {
  std::vector<double> scores;  ///< kernel-major, aligned with the grid
  double seconds = 0.0;
  std::size_t iterations = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
};

// Only training is timed; scoring (identical work in both paths) happens
// outside the stopwatch so the comparison isolates the training plane.
SweepResult cold_sweep(svm::SvmKind kind, const util::FeatureMatrix& train,
                       const util::FeatureMatrix& other) {
  SweepResult result;
  std::vector<svm::SvmModel> models;
  const util::Stopwatch watch;
  for (const auto& kernel : kernel_grid()) {
    for (const double reg : regularizer_grid(kind)) {
      svm::SvmConfig config;
      config.regularizer = reg;
      config.kernel = kernel;
      config.eps = kEps;
      config.shrinking = false;
      models.push_back(svm::SvmModel::train(kind, train, config, kDim));
      result.iterations += models.back().solver_stats().iterations;
      result.cache_hits += models.back().solver_stats().cache_hits;
      result.cache_misses += models.back().solver_stats().cache_misses;
    }
  }
  result.seconds = watch.elapsed_micros() * 1e-6;
  for (const auto& model : models) {
    result.scores.push_back(acc_score(model, train, other));
  }
  return result;
}

SweepResult fast_sweep(svm::SvmKind kind, const util::FeatureMatrix& train,
                       const util::FeatureMatrix& other) {
  SweepResult result;
  const auto regs = regularizer_grid(kind);
  std::vector<svm::SvmModel> models;
  const util::Stopwatch watch;
  // All four kernels transform the same Gram rows: share the dot products.
  const auto gram = std::make_shared<svm::GramCache>(train);
  for (const auto& kernel : kernel_grid()) {
    svm::SvmConfig config;
    config.kernel = kernel;
    config.eps = kEps;
    config.shrinking = true;
    // Warm-started cells converge in ~150 iterations; the default libsvm
    // cadence (first pass after min(l, 1000) iterations) would never fire.
    config.shrink_interval = 8;
    config.gram_cache = gram;
    svm::PathStats stats;
    auto column = svm::SvmModel::fit_path(kind, train, config, regs, kDim, &stats);
    std::move(column.begin(), column.end(), std::back_inserter(models));
    for (const auto& cell : stats.cells) result.iterations += cell.iterations;
    result.cache_hits += stats.cache_hits;
    result.cache_misses += stats.cache_misses;
  }
  result.seconds = watch.elapsed_micros() * 1e-6;
  for (const auto& model : models) {
    result.scores.push_back(acc_score(model, train, other));
  }
  return result;
}

std::size_t argmax(const std::vector<double>& scores) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] > scores[best]) best = i;
  }
  return best;
}

void report(const char* name, const SweepResult& cold, const SweepResult& fast) {
  if (cold.scores.size() != fast.scores.size()) {
    std::fprintf(stderr, "FATAL: %s grid sizes differ\n", name);
    std::exit(1);
  }
  for (std::size_t i = 0; i < cold.scores.size(); ++i) {
    if (std::abs(cold.scores[i] - fast.scores[i]) > 1e-9) {
      std::fprintf(stderr,
                   "FATAL: %s ACC diverges at cell %zu: cold %.6f fast %.6f\n",
                   name, i, cold.scores[i], fast.scores[i]);
      std::exit(1);
    }
  }
  const std::size_t cold_win = argmax(cold.scores);
  const std::size_t fast_win = argmax(fast.scores);
  if (cold_win != fast_win) {
    std::fprintf(stderr, "FATAL: %s winners diverge: cold cell %zu fast cell %zu\n",
                 name, cold_win, fast_win);
    std::exit(1);
  }
  if (fast.cache_hits == 0) {
    std::fprintf(stderr, "FATAL: %s fast path shows no kernel-cache reuse\n",
                 name);
    std::exit(1);
  }
  const std::size_t regs = regularizer_grid(svm::SvmKind::kOcSvm).size();
  const double hit_rate =
      static_cast<double>(fast.cache_hits) /
      static_cast<double>(fast.cache_hits + fast.cache_misses);
  std::printf("%-8s cold %7.2fs (%9zu iters, %6zu rows)   fast %7.2fs "
              "(%9zu iters, %6zu rows)   speedup %5.2fx   cache hits %5.1f%%   "
              "winner kernel %zu reg #%zu ACC %.2f\n",
              name, cold.seconds, cold.iterations, cold.cache_misses,
              fast.seconds, fast.iterations, fast.cache_misses,
              cold.seconds / fast.seconds, 100.0 * hit_rate, cold_win / regs,
              cold_win % regs, cold.scores[cold_win]);
}

}  // namespace

/// Runs `sweep` kPasses times and keeps the fastest pass: each pass is tens
/// of milliseconds, where scheduler noise only ever adds time, so the
/// minimum is the robust estimate of the true cost.  Scores and counters
/// are identical across passes (same data, deterministic solves).
template <typename Sweep>
SweepResult repeat(Sweep&& sweep) {
  SweepResult result = sweep();
  for (std::size_t pass = 1; pass < kPasses; ++pass) {
    const double best = result.seconds;
    result = sweep();
    result.seconds = std::min(result.seconds, best);
  }
  return result;
}

namespace {

/// --overhead: best-of-kPasses fast sweep with tracing off vs. on (spans
/// recorded to bounded per-thread buffers, never exported); asserts the
/// plane costs < 3%.  Metrics counters are always on in both runs — they
/// are the solver's own stats publishing, part of the baseline.  Off/on
/// passes are interleaved so clock-frequency and thermal drift lands evenly
/// on both sides.
int run_overhead_mode(const util::FeatureMatrix& self,
                      const util::FeatureMatrix& other) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  const auto sweep_seconds = [&] {
    return fast_sweep(svm::SvmKind::kOcSvm, self, other).seconds;
  };
  sweep_seconds();  // warmup, untimed
  double off = std::numeric_limits<double>::infinity();
  double on = std::numeric_limits<double>::infinity();
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    recorder.disable();
    off = std::min(off, sweep_seconds());
    recorder.enable();
    on = std::min(on, sweep_seconds());
  }
  recorder.disable();
  const double overhead = (on - off) / off;
  std::printf("instrumentation overhead: tracing off %.3fs, "
              "enabled-but-unexported %.3fs -> %+.2f%%\n",
              off, on, 100.0 * overhead);
  const bool within_budget = overhead < 0.03;
  std::printf("shape check (observability plane costs < 3%% throughput): %s\n",
              within_budget ? "PASS" : "FAIL");
  return within_budget ? 0 : 1;
}

}  // namespace

namespace {

// ------------------------------------------------------------------ grid --

constexpr std::size_t kGridUsers = 25;
constexpr std::size_t kGridWindows = 150;
constexpr std::size_t kGridDim = 558;
constexpr std::size_t kGridNumeric = 6;  ///< columns 0..5; the rest binary
constexpr std::size_t kGridThreads = 4;
constexpr std::size_t kGridPasses = 5;

/// train25-shaped windows: each user's binary columns come from its own
/// habit range plus schema-wide noise, and a few numeric columns carry
/// counts, so the bitset plane scores them in a schema layout.
core::MatrixByUser grid_windows(util::Rng& rng) {
  std::vector<std::uint32_t> numeric(kGridNumeric);
  for (std::size_t c = 0; c < kGridNumeric; ++c) {
    numeric[c] = static_cast<std::uint32_t>(c);
  }
  core::MatrixByUser windows;
  for (std::size_t u = 0; u < kGridUsers; ++u) {
    const std::size_t habit =
        kGridNumeric + (u * 37) % (kGridDim - kGridNumeric - kProfileCols);
    std::vector<util::SparseVector> rows;
    for (std::size_t i = 0; i < kGridWindows; ++i) {
      std::set<std::size_t> cols;
      const std::size_t nnz = kMeanNnz / 2 + rng.uniform_index(kMeanNnz);
      while (cols.size() < nnz) {
        cols.insert(rng.bernoulli(0.25)
                        ? kGridNumeric +
                              rng.uniform_index(kGridDim - kGridNumeric)
                        : habit + rng.uniform_index(kProfileCols));
      }
      std::vector<util::SparseVector::Entry> entries;
      for (const std::size_t col : cols) entries.push_back({col, 1.0});
      for (std::size_t col = 0; col < kGridNumeric; ++col) {
        if (rng.bernoulli(0.5)) {
          entries.push_back({col, static_cast<double>(1 + rng.uniform_index(40))});
        }
      }
      rows.emplace_back(std::move(entries));
    }
    auto matrix = util::FeatureMatrix::from_rows(rows, kGridDim);
    matrix.ensure_bitset(numeric);
    const std::string name = "user" + std::to_string(100 + u);
    windows.emplace(name,
                    std::make_shared<const util::FeatureMatrix>(std::move(matrix)));
  }
  return windows;
}

using Grids = std::vector<std::vector<core::ParamGridEntry>>;

/// The per-cell oracle: one fit_path per (user, kernel), each model scored
/// on its own through profile_acceptance.
Grids oracle_grids(const core::MatrixByUser& windows,
                   std::span<const std::string> users,
                   std::span<const svm::KernelParams> kernels,
                   std::span<const double> regs, util::ThreadPool& pool) {
  Grids grids(users.size(),
              std::vector<core::ParamGridEntry>(kernels.size() * regs.size()));
  util::parallel_for(pool, users.size() * kernels.size(), [&](std::size_t index) {
    const std::size_t u = index / kernels.size();
    const std::size_t k = index % kernels.size();
    svm::SvmConfig config;
    config.kernel = kernels[k];
    config.eps = core::kGridCellEps;
    auto models = svm::SvmModel::fit_path(svm::SvmKind::kOcSvm,
                                          *windows.at(users[u]), config, regs,
                                          kGridDim);
    for (std::size_t r = 0; r < regs.size(); ++r) {
      core::ParamGridEntry& entry = grids[u][k * regs.size() + r];
      entry.params = {core::ClassifierType::kOcSvm, kernels[k], regs[r]};
      entry.ratios = core::profile_acceptance(
          core::UserProfile::from_model(users[u], entry.params,
                                        std::move(models[r])),
          windows, core::kGridAcceptSlack);
      entry.trainable =
          !(entry.ratios.acc_self == 0.0 && entry.ratios.acc_other == 100.0);
    }
  });
  return grids;
}

struct GridResult {
  double pair_seconds = 0.0;
  double oracle_seconds = 0.0;
  std::uint64_t pair_blocks = 0;  ///< dot blocks of one pair-scorer run
  std::size_t cells = 0;
};

/// Checks the pair scorer against the oracle (exits 1 on any difference)
/// and times both: the pair scorer best of kGridPasses runs, the oracle its
/// one checked run.
GridResult run_grid_section() {
  util::Rng rng{20170606};
  const core::MatrixByUser windows = grid_windows(rng);
  std::vector<std::string> users;
  for (const auto& entry : windows) users.push_back(entry.first);
  const auto kernels = core::paper_kernel_grid();
  const auto regs = core::paper_regularizer_grid();
  util::ThreadPool pool{kGridThreads};
  const auto pair_grid = [&] {
    return core::score_param_grid(windows, users, core::ClassifierType::kOcSvm,
                                  kernels, regs, kGridDim, pool);
  };

  obs::Counter& blocks = obs::Registry::global().counter("grid.pair_blocks");
  const std::uint64_t blocks_before = blocks.value();
  GridResult result;
  util::Stopwatch watch;
  const Grids got = pair_grid();
  result.pair_seconds = watch.elapsed_seconds();
  result.pair_blocks = blocks.value() - blocks_before;
  // The oracle takes seconds, so its one checked run is its timing.
  watch.reset();
  const Grids want = oracle_grids(windows, users, kernels, regs, pool);
  result.oracle_seconds = watch.elapsed_seconds();
  for (std::size_t u = 0; u < users.size(); ++u) {
    for (std::size_t i = 0; i < want[u].size(); ++i) {
      const auto& a = got[u][i];
      const auto& b = want[u][i];
      if (a.params != b.params || a.trainable != b.trainable ||
          a.ratios.acc_self != b.ratios.acc_self ||
          a.ratios.acc_other != b.ratios.acc_other) {
        std::fprintf(stderr,
                     "FATAL: grid %s cell %zu: pair scorer %.17g/%.17g, "
                     "oracle %.17g/%.17g (acc_self/acc_other)\n",
                     users[u].c_str(), i, a.ratios.acc_self,
                     a.ratios.acc_other, b.ratios.acc_self, b.ratios.acc_other);
        std::exit(1);
      }
    }
    if (core::best_params(got[u]).params != core::best_params(want[u]).params) {
      std::fprintf(stderr, "FATAL: grid %s: chosen parameters differ\n",
                   users[u].c_str());
      std::exit(1);
    }
    result.cells += want[u].size();
  }
  std::printf("grid check (pair scorer == per-cell oracle, %zu cells, %llu "
              "dot blocks): PASS\n",
              result.cells, static_cast<unsigned long long>(result.pair_blocks));

  for (std::size_t pass = 1; pass < kGridPasses; ++pass) {
    watch.reset();
    (void)pair_grid();
    result.pair_seconds = std::min(result.pair_seconds, watch.elapsed_seconds());
  }
  std::printf("grid     %zu users x %zu windows, %zu cols, %zu threads: pair "
              "scorer %6.3fs   per-cell oracle %6.3fs   ratio %5.2fx\n",
              kGridUsers, kGridWindows, kGridDim, kGridThreads,
              result.pair_seconds, result.oracle_seconds,
              result.oracle_seconds / result.pair_seconds);
  return result;
}

// --------------------------------------------------------------- windows --

constexpr std::size_t kWindowUsers = 25;
constexpr std::size_t kWindowCap = 150;  ///< train25's training-window cap
constexpr std::size_t kWindowTxns = 320000;
constexpr std::size_t kWindowPasses = 5;
constexpr features::WindowConfig kFoldWindow{60, 30};

struct WindowsResult {
  std::size_t users = 0;
  std::size_t transactions = 0;
  std::size_t train_rows = 0;
  std::size_t test_rows = 0;
  double fold_ns_per_txn = 0.0;
  double batch_matrix_seconds = 0.0;
  double oracle_seconds = 0.0;
};

/// The layer ledger's trace: 6 weeks at activity 0.4 over the paper's
/// vocabularies.
synthetic::GeneratorConfig ledger_trace_config() {
  synthetic::GeneratorConfig config;
  config.seed = 42;
  config.duration_weeks = 6;
  config.activity_scale = 0.4;
  config.site_pool.num_categories = synthetic::kPaperCategoryCount;
  config.site_pool.num_media_types = synthetic::kPaperSubTypeCount;
  config.site_pool.num_application_types = synthetic::kPaperApplicationTypeCount;
  return config;
}

/// The layer ledger's train25 trace, cut at 320,000 transactions.
std::vector<log::WebTransaction> window_trace() {
  auto txns = synthetic::generate_trace(ledger_trace_config()).transactions;
  if (txns.size() > kWindowTxns) {
    txns.erase(txns.begin() + static_cast<std::ptrdiff_t>(kWindowTxns), txns.end());
  }
  return txns;
}

core::ProfilingDataset window_dataset(std::vector<log::WebTransaction> txns) {
  core::DatasetConfig config;
  config.min_transactions = 200;
  config.max_users = kWindowUsers;
  config.max_training_windows = kWindowCap;
  return core::ProfilingDataset{std::move(txns), config};
}

bool same_bits(const util::FeatureMatrix& a, const util::FeatureMatrix& b) {
  const util::CsrView x = a.view();
  const util::CsrView y = b.view();
  const auto equal_bits = [](std::span<const double> p, std::span<const double> q) {
    return p.size() == q.size() &&
           std::memcmp(p.data(), q.data(), p.size() * sizeof(double)) == 0;
  };
  return x.cols == y.cols && std::ranges::equal(x.row_offsets, y.row_offsets) &&
         std::ranges::equal(x.indices, y.indices) && equal_bits(x.values, y.values) &&
         equal_bits(x.sq_norms, y.sq_norms);
}

[[noreturn]] void window_mismatch(const std::string& user, const char* what) {
  std::fprintf(stderr, "FATAL: windows %s: %s differs from the oracle\n",
               user.c_str(), what);
  std::exit(1);
}

/// Checks the streaming fold's windows and the dataset's batch train/test
/// matrices at train25 shape bitwise against the sort-based oracle
/// (tests/features/window_reference.h), exiting 1 on any difference, then
/// times the streaming fold per transaction (best of kWindowPasses serial
/// passes over every user's rows) and the batch matrices (best of
/// kWindowPasses fresh datasets, every user's train and test matrix
/// serially); the oracle's time is its one checked run.
WindowsResult run_windows_section() {
  const std::vector<log::WebTransaction> trace = window_trace();
  const core::ProfilingDataset dataset = window_dataset(trace);
  const features::FeatureSchema& schema = dataset.schema();
  const auto& users = dataset.user_ids();
  WindowsResult result;
  result.users = users.size();

  util::Stopwatch watch;
  std::vector<std::vector<features::Window>> oracle(users.size());
  std::vector<util::FeatureMatrix> oracle_train(users.size());
  std::vector<util::FeatureMatrix> oracle_test(users.size());
  for (std::size_t u = 0; u < users.size(); ++u) {
    oracle[u] = features::testing::reference_aggregate(
        schema, kFoldWindow, dataset.all_transactions(users[u]));
    oracle_train[u] = util::FeatureMatrix::from_rows(
        core::ProfilingDataset::subsample(
            features::window_vectors(features::testing::reference_aggregate(
                schema, kFoldWindow, dataset.train_transactions(users[u]))),
            kWindowCap),
        schema.dimension());
    oracle_test[u] = util::FeatureMatrix::from_rows(
        features::window_vectors(features::testing::reference_aggregate(
            schema, kFoldWindow, dataset.test_transactions(users[u]))),
        schema.dimension());
  }
  result.oracle_seconds = watch.elapsed_seconds();

  const features::WindowAggregator aggregator{schema, kFoldWindow};
  for (std::size_t u = 0; u < users.size(); ++u) {
    const auto streamed = aggregator.aggregate(dataset.all_transactions(users[u]));
    if (streamed.size() != oracle[u].size()) window_mismatch(users[u], "window count");
    for (std::size_t i = 0; i < streamed.size(); ++i) {
      const features::Window& got = streamed[i];
      const features::Window& want = oracle[u][i];
      if (got.start != want.start || got.end != want.end ||
          got.transaction_count != want.transaction_count ||
          !features::testing::bitwise_equal(got.features, want.features)) {
        window_mismatch(users[u], "a streamed window");
      }
    }
    const auto train = dataset.train_matrix(users[u], kFoldWindow);
    const auto test = dataset.test_matrix(users[u], kFoldWindow);
    if (!same_bits(*train, oracle_train[u])) window_mismatch(users[u], "the train matrix");
    if (!same_bits(*test, oracle_test[u])) window_mismatch(users[u], "the test matrix");
    result.transactions += dataset.all_transactions(users[u]).size();
    result.train_rows += train->rows();
    result.test_rows += test->rows();
  }
  std::printf("windows check (streaming fold and batch train/test matrices == "
              "sort-based oracle, %zu users, %zu train + %zu test rows): PASS\n",
              result.users, result.train_rows, result.test_rows);

  double fold_seconds = std::numeric_limits<double>::infinity();
  for (std::size_t pass = 0; pass < kWindowPasses; ++pass) {
    std::size_t windows = 0;
    watch.reset();
    for (const auto& user : users) {
      features::StreamingWindowAggregator fold{schema, kFoldWindow};
      for (const auto& txn : dataset.all_transactions(user)) {
        windows += fold.push(txn).size();
      }
      windows += fold.flush().size();
    }
    fold_seconds = std::min(fold_seconds, watch.elapsed_seconds());
    if (windows == 0) std::exit(1);
  }
  result.fold_ns_per_txn = fold_seconds * 1e9 / static_cast<double>(result.transactions);

  result.batch_matrix_seconds = std::numeric_limits<double>::infinity();
  for (std::size_t pass = 0; pass < kWindowPasses; ++pass) {
    const core::ProfilingDataset fresh = window_dataset(trace);
    watch.reset();
    for (const auto& user : fresh.user_ids()) {
      (void)fresh.train_matrix(user, kFoldWindow);
      (void)fresh.test_matrix(user, kFoldWindow);
    }
    result.batch_matrix_seconds =
        std::min(result.batch_matrix_seconds, watch.elapsed_seconds());
  }
  std::printf("windows  %zu users, %zu txns: fold %6.1f ns/txn   batch matrices "
              "%6.3fs   oracle %6.3fs\n",
              result.users, result.transactions, result.fold_ns_per_txn,
              result.batch_matrix_seconds, result.oracle_seconds);
  return result;
}

// ----------------------------------------------------------------- trace --

constexpr std::size_t kTraceThreads = 4;
constexpr std::size_t kTracePasses = 5;

struct TraceResult {
  std::size_t rows = 0;
  double generate_seconds = std::numeric_limits<double>::infinity();
  double oracle_seconds = std::numeric_limits<double>::infinity();
};

/// Checks generate_trace on a kTraceThreads pool against the serial
/// reference (tests/synthetic/trace_reference.h) at the layer ledger's trace
/// shape, every row and field, exiting 1 on any difference; then times each
/// best of kTracePasses, the two alternating.
TraceResult run_trace_section() {
  const synthetic::GeneratorConfig config = ledger_trace_config();
  util::ThreadPool pool{kTraceThreads};
  TraceResult result;
  {
    const auto got = synthetic::generate_trace(config, pool).transactions;
    const auto want = synthetic::testing::reference_trace(config).transactions;
    if (got.size() != want.size()) {
      std::fprintf(stderr, "FATAL: trace: %zu rows, the serial reference %zu\n",
                   got.size(), want.size());
      std::exit(1);
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (got[i] != want[i]) {
        std::fprintf(stderr, "FATAL: trace row %zu differs from the serial reference\n", i);
        std::exit(1);
      }
    }
    result.rows = got.size();
  }
  std::printf("trace check (generate_trace on %zu threads == serial reference, "
              "%zu rows): PASS\n",
              kTraceThreads, result.rows);

  // Each trace is read off the clock before it is destroyed: freeing the
  // rows is not generation.
  util::Stopwatch watch;
  for (std::size_t pass = 0; pass < kTracePasses; ++pass) {
    watch.reset();
    const auto generated = synthetic::generate_trace(config, pool);
    result.generate_seconds = std::min(result.generate_seconds, watch.elapsed_seconds());
    watch.reset();
    const auto reference = synthetic::testing::reference_trace(config);
    result.oracle_seconds = std::min(result.oracle_seconds, watch.elapsed_seconds());
  }
  std::printf("trace    %zu rows, %zu threads: generate_trace %6.3fs   serial "
              "reference %6.3fs   ratio %5.2fx\n",
              result.rows, kTraceThreads, result.generate_seconds,
              result.oracle_seconds, result.oracle_seconds / result.generate_seconds);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  util::Rng rng{20170605};  // ICDCS'17
  const auto self = habit_windows(rng, kWindows, 100);
  const auto other = habit_windows(rng, kWindows, 500);

  std::string json_out;  // empty = no BENCH_*.json checkpoint
  for (int i = 1; i < argc; ++i) {
    if (std::string_view{argv[i]} == "--overhead") {
      return run_overhead_mode(self, other);
    }
    if (std::string_view{argv[i]} == "--json-out" && i + 1 < argc) {
      json_out = argv[++i];
    }
  }

  const TraceResult trace = run_trace_section();
  const WindowsResult windows = run_windows_section();
  std::printf("Training throughput — %zu windows, %zu cols, ~%zu nnz, "
              "%zu kernels x %zu regularizers, %zu timed passes (identical "
              "winners + ACC enforced)\n",
              kWindows, kDim, kMeanNnz, kernel_grid().size(),
              regularizer_grid(svm::SvmKind::kOcSvm).size(), kPasses);

  const auto oc_cold =
      repeat([&] { return cold_sweep(svm::SvmKind::kOcSvm, self, other); });
  const auto oc_fast =
      repeat([&] { return fast_sweep(svm::SvmKind::kOcSvm, self, other); });
  report("oc-svm", oc_cold, oc_fast);

  const auto svdd_cold =
      repeat([&] { return cold_sweep(svm::SvmKind::kSvdd, self, other); });
  const auto svdd_fast =
      repeat([&] { return fast_sweep(svm::SvmKind::kSvdd, self, other); });
  report("svdd", svdd_cold, svdd_fast);

  const double cold_total = oc_cold.seconds + svdd_cold.seconds;
  const double fast_total = oc_fast.seconds + svdd_fast.seconds;
  std::printf("total    cold %7.2fs   fast %7.2fs   speedup %.2fx\n",
              cold_total, fast_total, cold_total / fast_total);
  if (cold_total < 3.0 * fast_total) {
    std::fprintf(stderr, "WARNING: overall speedup below the 3x target\n");
  }
  const GridResult grid = run_grid_section();

  if (!json_out.empty()) {
    wtp::bench::JsonBuilder json;
    json.begin_object();
    json.key("bench").value("training_throughput");
    json.key("sweep_windows").value(kWindows);
    json.key("dimension").value(kDim);
    json.key("mean_nnz").value(kMeanNnz);
    json.key("passes").value(kPasses);
    json.key("grid_kernels").value(kernel_grid().size());
    json.key("grid_regularizers").value(regularizer_grid(svm::SvmKind::kOcSvm).size());
    const auto emit = [&json](const char* name, const SweepResult& cold,
                              const SweepResult& fast) {
      const std::size_t winner = argmax(cold.scores);
      json.key(name).begin_object();
      json.key("cold_seconds").value(cold.seconds);
      json.key("fast_seconds").value(fast.seconds);
      json.key("speedup").value(cold.seconds / fast.seconds);
      json.key("cold_iterations").value(std::uint64_t{cold.iterations});
      json.key("fast_iterations").value(std::uint64_t{fast.iterations});
      json.key("cache_hit_rate")
          .value(static_cast<double>(fast.cache_hits) /
                 static_cast<double>(fast.cache_hits + fast.cache_misses));
      json.key("winner_cell").value(std::uint64_t{winner});
      json.key("winner_acc").value(cold.scores[winner]);
      json.end_object();
    };
    emit("oc_svm", oc_cold, oc_fast);
    emit("svdd", svdd_cold, svdd_fast);
    json.key("total_cold_seconds").value(cold_total);
    json.key("total_fast_seconds").value(fast_total);
    json.key("total_speedup").value(cold_total / fast_total);
    json.key("grid").begin_object();
    json.key("users").value(kGridUsers);
    json.key("windows").value(kGridWindows);
    json.key("dimension").value(kGridDim);
    json.key("cells").value(grid.cells);
    json.key("threads").value(kGridThreads);
    json.key("passes").value(kGridPasses);
    json.key("pair_blocks").value(grid.pair_blocks);
    json.key("pair_seconds").value(grid.pair_seconds);
    json.key("oracle_seconds").value(grid.oracle_seconds);
    json.key("oracle_ratio").value(grid.oracle_seconds / grid.pair_seconds);
    json.end_object();
    json.key("windows").begin_object();
    json.key("users").value(windows.users);
    json.key("transactions").value(windows.transactions);
    json.key("train_cap").value(kWindowCap);
    json.key("train_rows").value(windows.train_rows);
    json.key("test_rows").value(windows.test_rows);
    json.key("passes").value(kWindowPasses);
    json.key("fold_ns_per_txn").value(windows.fold_ns_per_txn);
    json.key("batch_matrix_seconds").value(windows.batch_matrix_seconds);
    json.key("oracle_seconds").value(windows.oracle_seconds);
    json.end_object();
    json.key("trace").begin_object();
    json.key("rows").value(trace.rows);
    json.key("threads").value(kTraceThreads);
    json.key("passes").value(kTracePasses);
    json.key("generate_seconds").value(trace.generate_seconds);
    json.key("oracle_seconds").value(trace.oracle_seconds);
    json.end_object();
    json.end_object();
    json.write_file(json_out);
    std::printf("wrote %s\n", json_out.c_str());
  }
  return 0;
}
