// wtp_train — train per-user one-class profiles from a proxy log and write
// a deployable profile store (schema + window config + models).
//
//   wtp_train --log trace.csv --out profiles.wtpstore
//             [--classifier oc-svm|svdd] [--duration 60] [--shift 30]
//             [--min-transactions 200] [--max-users 25] [--optimize]
//             [--nu 0.1] [--kernel rbf] [--threads 0]
//             [--metrics-out FILE] [--metrics-interval S] [--trace-out FILE]
//
// With --optimize, each user's kernel and nu/C are grid-searched as in the
// paper (§IV-C); otherwise the fixed --kernel/--nu are used for everyone.
//
// Telemetry: --metrics-out writes a JSON snapshot of the solver/grid-search
// registry every --metrics-interval seconds (default 1) and once at exit;
// --trace-out captures per-solve and per-grid-cell trace spans as Chrome
// trace_event JSON.  Either flag also prints a run summary table to stderr.
#include <cstdio>
#include <stdexcept>

#include "core/grid_search.h"
#include "index/mapped_store.h"
#include "log/log_io.h"
#include "tool_common.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

using namespace wtp;

namespace {

int run(int argc, char** argv) {
  const tools::Args args{argc, argv,
                         "--log FILE --out FILE [--classifier oc-svm|svdd] "
                         "[--duration S] [--shift S] [--min-transactions N] "
                         "[--max-users N] [--optimize] [--nu F] [--kernel K] "
                         "[--threads N] [--metrics-out FILE] "
                         "[--metrics-interval S] [--trace-out FILE]"};
  // Training is always exact; only the backend choice applies here.
  tools::check_kernel_backend(args);
  const std::string log_path = args.require("log");
  const std::string out_path = args.require("out");
  const std::string classifier = args.get("classifier", "oc-svm");
  core::ClassifierType type{};
  try {
    type = svm::parse_svm_kind(classifier);
  } catch (const std::runtime_error&) {
    args.die("unknown --classifier '" + classifier + "'");
  }

  tools::Telemetry telemetry{args};

  util::Stopwatch stopwatch;
  auto transactions = log::read_log_file(log_path);
  std::printf("loaded %zu transactions from %s (%.1fs)\n", transactions.size(),
              log_path.c_str(), stopwatch.elapsed_seconds());

  core::DatasetConfig dataset_config;
  dataset_config.min_transactions =
      static_cast<std::size_t>(args.get_int("min-transactions", 200));
  dataset_config.max_users = static_cast<std::size_t>(args.get_int("max-users", 25));
  const core::ProfilingDataset dataset{std::move(transactions), dataset_config};
  std::printf("kept %zu users; %zu feature columns\n", dataset.user_count(),
              dataset.schema().dimension());
  if (dataset.user_count() == 0) args.die("no users passed the filter");

  const features::WindowConfig window{args.get_int("duration", 60),
                                      args.get_int("shift", 30)};

  util::ThreadPool pool{static_cast<std::size_t>(args.get_int("threads", 0))};
  std::vector<core::ProfileParams> params;
  stopwatch.reset();
  if (args.has("optimize")) {
    const auto kernels = core::paper_kernel_grid();
    const std::vector<double> regularizers{0.5, 0.2, 0.1, 0.05, 0.01};
    params = core::optimize_all_users(dataset, window, type, kernels,
                                      regularizers, pool);
    std::printf("per-user grid search done (%.1fs)\n", stopwatch.elapsed_seconds());
  } else {
    core::ProfileParams fixed;
    fixed.type = type;
    fixed.kernel.type = svm::parse_kernel_type(args.get("kernel", "rbf"));
    fixed.regularizer = args.get_double("nu", 0.1);
    params.assign(dataset.user_count(), fixed);
  }

  stopwatch.reset();
  auto profiles = core::train_profiles(dataset, window, params, pool);
  std::printf("trained %zu profiles (%.1fs)\n", profiles.size(),
              stopwatch.elapsed_seconds());
  for (const auto& profile : profiles) {
    std::printf("  %-10s %-7s kernel=%-10s reg=%.3f SVs=%zu\n",
                profile.user_id().c_str(),
                std::string{svm::to_string(profile.params().type)}.c_str(),
                svm::describe(profile.params().kernel).c_str(),
                profile.params().regularizer, profile.support_vector_count());
  }

  index::write_mapped_store(
      core::ProfileStore{window, dataset.schema(), std::move(profiles)}, out_path);
  std::printf("profile store written to %s\n", out_path.c_str());

  return telemetry.finish(0);
}

}  // namespace

int main(int argc, char** argv) {
  return tools::run_tool("wtp_train", run, argc, argv);
}
