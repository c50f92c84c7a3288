// Continuous authentication (paper §I's first motivating application).
//
// A user logs into a workstation; the monitor keeps checking that the web
// traffic produced by the device still matches the logged-in user's
// profile.  When the profile rejects several consecutive transaction
// windows, the session is "logged out".  We simulate a session hijack: the
// legitimate user works for 40 minutes, then an intruder (another employee)
// takes over the machine without re-authenticating.
#include <algorithm>
#include <cstdio>

#include "core/dataset.h"
#include "core/identification.h"
#include "core/profiler.h"
#include "synthetic/generator.h"

using namespace wtp;

namespace {

constexpr std::size_t kRejectionThreshold = 4;  // consecutive rejected windows

}  // namespace

int main() {
  synthetic::GeneratorConfig generator;
  generator.seed = 77;
  generator.duration_weeks = 3;
  generator.activity_scale = 0.5;
  generator.population.num_users = 10;
  generator.enterprise.num_users = 10;
  generator.enterprise.num_devices = 6;
  const auto trace = synthetic::generate_trace(generator);

  core::DatasetConfig dataset_config;
  dataset_config.min_transactions = 500;
  const core::ProfilingDataset dataset{trace.transactions, dataset_config};

  // Train the logged-in user's profile.
  const features::WindowConfig window{60, 30};
  std::map<std::string, std::size_t> user_index;
  for (std::size_t u = 0; u < trace.users.size(); ++u) {
    user_index[trace.users[u].user_id] = u;
  }
  const std::string owner = dataset.user_ids().front();
  std::string intruder;
  for (const auto& candidate : dataset.user_ids()) {
    if (candidate != owner) {
      intruder = candidate;
      break;
    }
  }
  core::ProfileParams params;
  params.type = core::ClassifierType::kOcSvm;
  params.kernel = {svm::KernelType::kRbf, 0.0, 0.0, 3};
  params.regularizer = 0.1;
  const auto profile = core::UserProfile::train(
      owner, *dataset.train_matrix(owner, window), dataset.schema().dimension(),
      params);
  std::printf("profile trained for %s; session hijacked by %s at minute 40\n\n",
              owner.c_str(), intruder.c_str());

  // Simulate the hijacked session: owner 40 min, intruder 40 min.
  util::Rng rng{99};
  std::vector<log::WebTransaction> stream;
  const util::UnixSeconds start =
      trace.config.start_time +
      (trace.config.duration_weeks - 1) * util::kSecondsPerWeek +
      11 * util::kSecondsPerHour;
  synthetic::SessionSpec spec;
  spec.device_index = 0;
  spec.user_index = user_index.at(owner);
  spec.start = start;
  spec.duration_minutes = 40;
  synthetic::generate_session(trace, spec, rng, stream);
  spec.user_index = user_index.at(intruder);
  spec.start = start + 40 * 60;
  synthetic::generate_session(trace, spec, rng, stream);
  std::sort(stream.begin(), stream.end(), [](const auto& a, const auto& b) {
    return a.timestamp < b.timestamp;
  });

  // Monitor: classify each window, log out after consecutive rejections.
  const features::WindowAggregator aggregator{dataset.schema(), window};
  const auto windows = aggregator.aggregate(stream);
  std::size_t consecutive_rejections = 0;
  bool logged_out = false;
  std::printf("time  verdict  (window-by-window decisions)\n");
  for (const auto& w : windows) {
    const bool ok =
        profile.decision_value(w.features, w.features.squared_norm()) >= 0.0;
    consecutive_rejections = ok ? 0 : consecutive_rejections + 1;
    const double minute =
        static_cast<double>(w.start - start) / util::kSecondsPerMinute;
    if (!ok) {
      std::printf("%5.1fm  REJECT (%zu consecutive)\n", minute,
                  consecutive_rejections);
    }
    if (consecutive_rejections >= kRejectionThreshold) {
      std::printf("%5.1fm  >>> LOGOUT: behaviour no longer matches %s "
                  "(hijack began at 40.0m)\n",
                  minute, owner.c_str());
      logged_out = true;
      break;
    }
  }
  if (!logged_out) {
    std::printf("session never logged out — threshold too lax for this trace\n");
    return 1;
  }
  return 0;
}
