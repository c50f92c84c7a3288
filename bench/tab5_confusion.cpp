// Tab. V reproduction: full acceptance confusion matrix for the OC-SVM user
// models on held-out test sets (cell (m_j, t_i) = % of user_i's test windows
// accepted by user_j's model).
//
// Shape criteria from the paper's matrix: a strong diagonal (self-acceptance
// mostly >= 75%), a sparse off-diagonal (most cells exactly 0), and a few
// cluster blocks of users who share behaviour (e.g. the paper's m13-m17).
#include <cstdio>

#include "bench_common.h"
#include "core/grid_search.h"
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
  const std::vector<double> regularizers =
      options.full ? core::paper_regularizer_grid()
                   : std::vector<double>{0.5, 0.2, 0.1, 0.05};

  util::Stopwatch stopwatch;
  const auto params = core::optimize_all_users(
      dataset, window, core::ClassifierType::kOcSvm, kernels, regularizers, pool);
  const auto profiles = core::train_profiles(dataset, window, params, pool);
  const auto evaluation = core::evaluate_on_test(dataset, window, profiles, pool);
  std::printf("# optimization + evaluation time: %.1fs\n",
              stopwatch.elapsed_seconds());

  const auto& confusion = evaluation.confusion;
  util::TextTable table;
  std::vector<std::string> header{"model\\test"};
  for (std::size_t i = 0; i < confusion.users.size(); ++i) {
    header.push_back(std::to_string(i + 1).insert(0, 1, 't'));
  }
  table.set_header(header);
  for (std::size_t j = 0; j < confusion.cells.size(); ++j) {
    std::vector<std::string> row{std::to_string(j + 1).insert(0, 1, 'm')};
    for (const double cell : confusion.cells[j]) {
      row.push_back(util::format_double(cell, 1));
    }
    table.add_row(row);
  }
  std::printf("%s\n",
              table.render("Tab. V — OC-SVM acceptance confusion matrix (%)")
                  .c_str());

  std::printf("diagonal mean:            %.1f%% (paper: ~90%%)\n",
              confusion.diagonal_mean());
  std::printf("off-diagonal mean:        %.1f%% (paper: 7.3%%)\n",
              confusion.off_diagonal_mean());
  std::printf("off-diagonal exact zeros: %.1f%% of cells (paper matrix: ~76%%, "
              "but several of its test sets have <10 windows)\n",
              100.0 * confusion.off_diagonal_zero_fraction());
  std::printf("off-diagonal <= 5%% cells: %.1f%% (scale-independent sparsity)\n",
              100.0 * confusion.off_diagonal_below(5.0));

  const bool diagonal_strong = confusion.diagonal_mean() > 60.0;
  const bool off_diagonal_weak =
      confusion.off_diagonal_mean() < confusion.diagonal_mean() - 30.0;
  const bool sparse = confusion.off_diagonal_below(5.0) > 0.3;
  std::printf("shape check (strong diagonal): %s\n",
              diagonal_strong ? "PASS" : "FAIL");
  std::printf("shape check (weak off-diagonal): %s\n",
              off_diagonal_weak ? "PASS" : "FAIL");
  std::printf("shape check (sparse off-diagonal, cells <= 5%%): %s\n",
              sparse ? "PASS" : "FAIL");
  return diagonal_strong && off_diagonal_weak && sparse ? 0 : 1;
}
