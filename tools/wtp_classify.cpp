// wtp_classify — score a proxy log against a trained profile store: prints
// the acceptance matrix (which profiles accept which users' windows).
//
//   wtp_classify --log test.csv --store profiles.wtpstore [--user USER]
//                [--metrics-out FILE] [--metrics-interval S]
//                [--trace-out FILE]
//
// With --user, only that profile's row is evaluated (continuous-
// authentication style); otherwise the full confusion matrix is printed.
//
// Telemetry matches wtp_serve: --metrics-out exports the global registry as
// a periodically-refreshed JSON snapshot (plus a stderr summary table),
// --trace-out captures Chrome trace_event JSON of the run.
//
// WTP_TRANSFORM_MODE=exact|relaxed selects the scoring tier (DESIGN §14;
// exact when unset) and WTP_KERNEL_BACKEND pins the kernel backend; an
// unknown value of either exits 2.
#include <cstdio>
#include <memory>

#include "core/metrics.h"
#include "features/split.h"
#include "features/window.h"
#include "index/mapped_store.h"
#include "log/log_io.h"
#include "tool_common.h"
#include "util/strings.h"
#include "util/table.h"

using namespace wtp;

namespace {

int run(int argc, char** argv) {
  const tools::Args args{argc, argv,
                         "--log FILE --store FILE [--user USER] "
                         "[--metrics-out FILE] [--metrics-interval S] "
                         "[--trace-out FILE]"};
  const svm::TransformMode tier = tools::scoring_tier(args);
  tools::Telemetry telemetry{args};
  const auto store = index::read_mapped_store(args.require("store"));
  const auto transactions = log::read_log_file(args.require("log"));
  std::printf("store: %zu profiles, window D=%lds S=%lds; log: %zu transactions\n",
              store.profiles().size(),
              static_cast<long>(store.window().duration_s),
              static_cast<long>(store.window().shift_s), transactions.size());

  // User-specific windowing of the evaluated log: one window matrix per
  // log user, scored by both the --user table and the full matrix.
  const features::WindowAggregator aggregator{store.schema(), store.window()};
  core::MatrixByUser windows;
  for (const auto& [user, txns] : features::group_by_user(transactions)) {
    util::FeatureMatrixBuilder builder;
    for (const auto& window : aggregator.aggregate(txns)) {
      builder.add_row(window.features);
    }
    windows.emplace(user, std::make_shared<const util::FeatureMatrix>(
                              builder.build(store.schema().dimension())));
  }

  if (args.has("user")) {
    const std::string user = args.require("user");
    const auto* profile = store.find(user);
    if (profile == nullptr) args.die("no profile for user '" + user + "'");
    util::TextTable table;
    table.set_header({"log user", "windows", "accepted by " + user});
    for (const auto& [log_user, matrix] : windows) {
      const double ratio = profile->acceptance_ratio(*matrix, 0.0, tier);
      table.add_row({log_user, std::to_string(matrix->rows()),
                     util::format_double(100.0 * ratio, 1) + "%"});
    }
    std::printf("%s", table.render().c_str());
    return telemetry.finish(0);
  }

  const auto confusion = core::compute_confusion(store.profiles(), windows, tier);
  util::TextTable table;
  std::vector<std::string> header{"model\\log user"};
  for (const auto& user : confusion.users) header.push_back(user);
  table.set_header(header);
  for (std::size_t j = 0; j < confusion.cells.size(); ++j) {
    std::vector<std::string> row{store.profiles()[j].user_id()};
    for (const double cell : confusion.cells[j]) {
      row.push_back(util::format_double(cell, 1));
    }
    table.add_row(row);
  }
  std::printf("%s", table.render("acceptance matrix (%)").c_str());
  std::printf("diagonal mean %.1f%%, off-diagonal mean %.1f%%\n",
              confusion.diagonal_mean(), confusion.off_diagonal_mean());
  return telemetry.finish(0);
}

}  // namespace

int main(int argc, char** argv) {
  return tools::run_tool("wtp_classify", run, argc, argv);
}
