// Device topology of the synthetic enterprise: which users use which
// devices.  The paper's dataset has 36 users on 35 devices, each device used
// by ~3 users on average, and per-user device counts ranging from 1 to 17.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/shared_string.h"

namespace wtp::synthetic {

struct EnterpriseConfig {
  std::size_t num_users = 36;
  std::size_t num_devices = 35;
  /// Probability that a session happens on the user's primary device.
  double primary_device_affinity = 0.75;
  /// Mean number of *extra* (shared) devices per user (geometric).
  double mean_extra_devices = 2.0;
  std::size_t max_extra_devices = 16;  ///< paper max: 17 devices for one user
};

/// User-device bipartite assignment.  Device ids are "device_1"..
struct DeviceTopology {
  std::vector<util::SharedString> device_ids;
  /// Per user (index-aligned with the profile vector): the devices the user
  /// works on; element 0 is the primary device.
  std::vector<std::vector<std::size_t>> user_devices;
  double primary_device_affinity = 0.75;

  /// Picks a device for a new session of user `user_index`.
  [[nodiscard]] std::size_t sample_device(std::size_t user_index,
                                          util::Rng& rng) const;

  /// Users assigned to a device (inverse mapping).
  [[nodiscard]] std::vector<std::size_t> device_users(std::size_t device_index) const;

  /// Mean number of users per (used) device.
  [[nodiscard]] double mean_users_per_device() const;
};

/// Builds the topology: every user gets a primary device (round-robin so all
/// devices are primaries of ~1 user), plus a geometric number of shared
/// devices.  Deterministic given the rng seed.
[[nodiscard]] DeviceTopology build_device_topology(const EnterpriseConfig& config,
                                                   util::Rng& rng);

}  // namespace wtp::synthetic
