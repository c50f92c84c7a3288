// Intrusion monitoring (paper §I's second motivating application).
//
// An administrator profiles every known employee, then watches all devices.
// For each monitored transaction window the monitor reports which profile
// matches; windows that match *no* known profile raise an alert — here an
// outsider (a user whose traffic was never profiled) plugs into the
// network.
#include <algorithm>
#include <cstdio>
#include <map>

#include "core/dataset.h"
#include "core/identification.h"
#include "synthetic/generator.h"
#include "util/thread_pool.h"

using namespace wtp;

int main() {
  synthetic::GeneratorConfig generator;
  generator.seed = 4242;
  generator.duration_weeks = 3;
  generator.activity_scale = 0.5;
  generator.population.num_users = 12;
  generator.enterprise.num_users = 12;
  generator.enterprise.num_devices = 8;
  const auto trace = synthetic::generate_trace(generator);

  core::DatasetConfig dataset_config;
  dataset_config.min_transactions = 500;
  const core::ProfilingDataset dataset{trace.transactions, dataset_config};

  // Profile every employee of this enterprise.
  const features::WindowConfig window{60, 30};
  std::vector<core::UserProfile> profiles;
  for (const auto& user : dataset.user_ids()) {
    core::ProfileParams params;
    params.type = core::ClassifierType::kOcSvm;
    params.kernel = {svm::KernelType::kRbf, 0.0, 0.0, 3};
    params.regularizer = 0.1;
    profiles.push_back(core::UserProfile::train(
        user, *dataset.train_matrix(user, window), dataset.schema().dimension(),
        params));
  }
  // The intruder comes from a *different* enterprise: a second trace with
  // its own site pool and users (nobody in our profile set has ever seen
  // this person's behaviour).
  auto intruder_config = generator;
  intruder_config.seed = 777;
  const auto foreign = synthetic::generate_trace(intruder_config);
  const std::string outsider = "intruder";
  std::printf("profiled %zu employees; the outsider comes from a foreign "
              "network\n\n",
              profiles.size());

  // Build a monitored stream: a profiled employee's normal afternoon,
  // interrupted by the outsider on the same device.
  std::map<std::string, std::size_t> user_index;
  for (std::size_t u = 0; u < trace.users.size(); ++u) {
    user_index[trace.users[u].user_id] = u;
  }
  const std::string employee = dataset.user_ids().front();
  util::Rng rng{5};
  std::vector<log::WebTransaction> stream;
  const util::UnixSeconds start =
      trace.config.start_time +
      (trace.config.duration_weeks - 1) * util::kSecondsPerWeek +
      13 * util::kSecondsPerHour;
  synthetic::SessionSpec spec;
  spec.device_index = 1;
  spec.user_index = user_index.at(employee);
  spec.start = start;
  spec.duration_minutes = 25;
  synthetic::generate_session(trace, spec, rng, stream);
  // Splice in 20 minutes of the foreign user's traffic on the same device.
  {
    synthetic::SessionSpec foreign_spec;
    foreign_spec.user_index = 0;
    foreign_spec.device_index = 0;
    foreign_spec.start = foreign.config.start_time + util::kSecondsPerDay;
    foreign_spec.duration_minutes = 20;
    std::vector<log::WebTransaction> foreign_txns;
    util::Rng foreign_rng{11};
    synthetic::generate_session(foreign, foreign_spec, foreign_rng, foreign_txns);
    const util::UnixSeconds offset =
        (start + 25 * 60) - foreign_spec.start;
    for (auto txn : foreign_txns) {
      txn.timestamp += offset;
      txn.user_id = outsider;
      txn.device_id = trace.topology.device_ids[1];
      stream.push_back(std::move(txn));
    }
  }
  spec.user_index = user_index.at(employee);
  spec.start = start + 45 * 60;
  spec.duration_minutes = 15;
  synthetic::generate_session(trace, spec, rng, stream);
  std::sort(stream.begin(), stream.end(), [](const auto& a, const auto& b) {
    return a.timestamp < b.timestamp;
  });

  const core::UserIdentifier identifier{profiles, dataset.schema(), window};
  const auto events = identifier.monitor(stream);

  std::size_t alerts = 0;
  std::size_t outsider_windows = 0;
  std::size_t outsider_alerts = 0;
  std::size_t employee_windows = 0;
  std::size_t employee_alerts = 0;
  std::printf("time   truth      monitor verdict\n");
  for (const auto& event : events) {
    const double minute =
        static_cast<double>(event.window_start - start) / util::kSecondsPerMinute;
    std::string verdict;
    if (event.accepted_by.empty()) {
      verdict = "ALERT: matches no known profile";
      ++alerts;
    } else if (event.accepted_by.size() == 1) {
      verdict = "identified as " + event.accepted_by.front();
    } else {
      verdict = "ambiguous (" + std::to_string(event.accepted_by.size()) +
                " profiles match)";
    }
    if (event.true_user == outsider) {
      ++outsider_windows;
      if (event.accepted_by.empty()) ++outsider_alerts;
    } else {
      ++employee_windows;
      if (event.accepted_by.empty()) ++employee_alerts;
    }
    std::printf("%5.1fm %-10s %s\n", minute, event.true_user.c_str(),
                verdict.c_str());
  }
  const double outsider_rate =
      outsider_windows ? static_cast<double>(outsider_alerts) /
                             static_cast<double>(outsider_windows)
                       : 0.0;
  const double employee_rate =
      employee_windows ? static_cast<double>(employee_alerts) /
                             static_cast<double>(employee_windows)
                       : 0.0;
  std::printf("\n%zu alerts raised; alert rate: outsider %.0f%%/window vs "
              "employee %.0f%%/window\n",
              alerts, 100.0 * outsider_rate, 100.0 * employee_rate);
  // The monitor works when unprofiled traffic alerts far more often than
  // profiled traffic.
  return outsider_windows > 0 && outsider_rate > 2.0 * employee_rate &&
                 outsider_alerts >= 3
             ? 0
             : 1;
}
