// Trace explorer: the log-processing side of the library without any
// machine learning.  Generates an enterprise trace, writes it in the proxy
// CSV format, reads it back in, and prints dataset statistics mirroring
// the paper's §IV-A description (per-user transaction counts, device
// sharing, vocabulary footprints).
//
// Usage: trace_explorer [output.csv]
#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "core/novelty.h"
#include "features/split.h"
#include "log/log_io.h"
#include "synthetic/generator.h"
#include "util/table.h"

using namespace wtp;

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "trace_sample.csv";

  synthetic::GeneratorConfig generator;
  generator.seed = 31337;
  generator.duration_weeks = 2;
  generator.activity_scale = 0.4;
  const auto trace = synthetic::generate_trace(generator);

  // Round-trip through the on-disk proxy-log format.
  log::write_log_file(path, trace.transactions);
  const auto loaded = log::read_log_file(path);
  std::printf("wrote and re-read %zu transactions via %s\n\n", loaded.size(),
              path.c_str());

  // Per-user counts (paper: 2,514 .. 4,678,488 per user, median 38,910).
  const auto by_user = features::group_by_user(loaded);
  std::vector<std::size_t> counts;
  for (const auto& [user, txns] : by_user) {
    (void)user;
    counts.push_back(txns.size());
  }
  std::sort(counts.begin(), counts.end());
  std::printf("users: %zu, transactions per user: min=%zu median=%zu max=%zu\n",
              by_user.size(), counts.front(), counts[counts.size() / 2],
              counts.back());

  // Device sharing (paper: 35 devices, ~3 users each).
  const auto by_device = features::group_by_device(loaded);
  double shared_users = 0.0;
  for (const auto& [device, txns] : by_device) {
    (void)device;
    std::set<std::string> users;
    for (const auto& t : txns) users.insert(t.user_id);
    shared_users += static_cast<double>(users.size());
  }
  std::printf("devices: %zu, mean users per device: %.2f\n\n", by_device.size(),
              shared_users / static_cast<double>(by_device.size()));

  // Top categories by transaction volume.
  std::map<std::string, std::size_t> category_counts;
  for (const auto& t : loaded) ++category_counts[t.category];
  std::vector<std::pair<std::string, std::size_t>> top{category_counts.begin(),
                                                       category_counts.end()};
  std::sort(top.begin(), top.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  util::TextTable table;
  table.set_header({"category", "transactions"});
  for (std::size_t i = 0; i < std::min<std::size_t>(10, top.size()); ++i) {
    table.add_row({top[i].first, std::to_string(top[i].second)});
  }
  std::printf("%s\n", table.render("top categories").c_str());

  // Vocabulary footprints (paper §IV-B).
  const auto footprints = core::user_footprints(by_user);
  std::printf("mean distinct values per user: categories=%.1f subtypes=%.1f "
              "applications=%.1f\n",
              footprints.mean_categories, footprints.mean_sub_types,
              footprints.mean_application_types);
  return 0;
}
