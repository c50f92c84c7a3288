// Shared fixtures for the serving-plane test suites (engine, net loopback,
// fault injection, retraining): a small trained store over the shared tiny
// trace and an offline-replay oracle producing the exact decision lines the
// network path must reproduce byte for byte.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/profile_store.h"
#include "core/test_trace.h"
#include "log/transaction.h"
#include "serve/engine.h"
#include "serve/event.h"

namespace wtp::serve::testing {

/// Store trained on the shared tiny trace (fast linear SVDD profiles).
inline const core::ProfileStore& tiny_store() {
  static const core::ProfileStore store = [] {
    const core::ProfilingDataset& dataset = core::testing::tiny_dataset();
    const features::WindowConfig window{60, 30};
    std::vector<core::UserProfile> profiles;
    for (const auto& user : dataset.user_ids()) {
      core::ProfileParams params;
      params.type = core::ClassifierType::kSvdd;
      params.kernel = {svm::KernelType::kLinear, 0.0, 0.0, 3};
      params.regularizer = 0.5;
      profiles.push_back(core::UserProfile::train(
          user, *dataset.train_matrix(user, window),
          dataset.schema().dimension(), params));
    }
    return core::ProfileStore{window, dataset.schema(), std::move(profiles)};
  }();
  return store;
}

/// Offline replay: ingest + flush through a local engine, decisions
/// rendered to their JSON lines grouped per device in emission order — the
/// byte-level oracle for the TCP loopback suites.
inline std::map<std::string, std::vector<std::string>> offline_decision_lines(
    const core::ProfileStore& store, EngineConfig config,
    std::span<const log::WebTransaction> txns) {
  std::map<std::string, std::vector<std::string>> by_device;
  ScoringEngine engine{store, config, [&by_device](const DecisionEvent& event) {
                         by_device[event.device_id].push_back(
                             to_json_line(event));
                       }};
  for (const auto& txn : txns) engine.ingest(txn);
  engine.flush();
  return by_device;
}

/// Extracts the "device" field from a decision JSON line (tiny-trace device
/// ids carry no escapes).
inline std::string device_of_line(const std::string& line) {
  const std::string key = "\"device\":\"";
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + key.size();
  return line.substr(begin, line.find('"', begin) - begin);
}

/// True for `{"type":"<type>",...}` lines.
inline bool line_has_type(const std::string& line, const std::string& type) {
  return line.rfind("{\"type\":\"" + type + "\"", 0) == 0;
}

}  // namespace wtp::serve::testing
