#include "features/split.h"

#include <algorithm>

namespace wtp::features {

namespace {

template <typename KeyFn>
std::map<std::string, std::vector<log::WebTransaction>> group_by(
    std::span<const log::WebTransaction> txns, KeyFn key) {
  std::map<std::string, std::vector<log::WebTransaction>> groups;
  for (const auto& txn : txns) groups[key(txn)].push_back(txn);
  return groups;
}

}  // namespace

std::map<std::string, std::vector<log::WebTransaction>> group_by_user(
    std::span<const log::WebTransaction> txns) {
  return group_by(txns, [](const log::WebTransaction& t) { return t.user_id; });
}

std::map<std::string, std::vector<log::WebTransaction>> group_by_device(
    std::span<const log::WebTransaction> txns) {
  return group_by(txns, [](const log::WebTransaction& t) { return t.device_id; });
}

EpochSplit epoch_split(std::span<const log::WebTransaction> txns,
                       util::UnixSeconds t) {
  const auto cut = std::partition_point(
      txns.begin(), txns.end(),
      [t](const log::WebTransaction& txn) { return txn.timestamp < t; });
  EpochSplit split;
  split.observed.assign(txns.begin(), cut);
  split.subsequent.assign(cut, txns.end());
  return split;
}

}  // namespace wtp::features
