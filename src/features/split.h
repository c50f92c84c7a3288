// Dataset manipulation: grouping transactions per user or per device, and
// the week-t observed/subsequent epoch split of the novelty analysis.  The
// paper's per-user 75/25 train/test split and its user filter live in
// core::ProfilingDataset.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "log/transaction.h"
#include "util/time.h"

namespace wtp::features {

/// Groups by user_id, preserving time order within each group.
[[nodiscard]] std::map<std::string, std::vector<log::WebTransaction>> group_by_user(
    std::span<const log::WebTransaction> txns);

/// Groups by device_id, preserving time order within each group.
[[nodiscard]] std::map<std::string, std::vector<log::WebTransaction>> group_by_device(
    std::span<const log::WebTransaction> txns);

struct EpochSplit {
  std::vector<log::WebTransaction> observed;    ///< before t
  std::vector<log::WebTransaction> subsequent;  ///< at/after t
};

/// Splits a time-sorted sequence at an absolute epoch delimiter t.
[[nodiscard]] EpochSplit epoch_split(std::span<const log::WebTransaction> txns,
                                     util::UnixSeconds t);

}  // namespace wtp::features
