// wtp_identify — online user identification on a device's traffic (the
// paper's Fig. 3 scenario as a tool).
//
//   wtp_identify --log monitored.csv --store profiles.wtpstore
//                [--device DEVICE] [--smooth K]
//                [--metrics-out FILE] [--metrics-interval S]
//                [--trace-out FILE]
//
// Host-specific windowing over the device's transactions; every profile in
// the store votes on each window.  With --smooth K, identity is only
// asserted after K consecutive accepted windows (§V-B).
//
// Telemetry matches wtp_serve: --metrics-out exports the global registry as
// a periodically-refreshed JSON snapshot (plus a stderr summary table),
// --trace-out captures Chrome trace_event JSON of the run.
//
// WTP_TRANSFORM_MODE=exact|relaxed selects the scoring tier (DESIGN §14;
// exact when unset) and WTP_KERNEL_BACKEND pins the kernel backend; an
// unknown value of either exits 2.
#include <cstdio>

#include "core/identification.h"
#include "features/split.h"
#include "index/mapped_store.h"
#include "log/log_io.h"
#include "tool_common.h"
#include "util/strings.h"
#include "util/time.h"

using namespace wtp;

namespace {

int run(int argc, char** argv) {
  const tools::Args args{argc, argv,
                         "--log FILE --store FILE [--device D] [--smooth K] "
                         "[--metrics-out FILE] [--metrics-interval S] "
                         "[--trace-out FILE]"};
  const svm::TransformMode tier = tools::scoring_tier(args);
  tools::Telemetry telemetry{args};
  const auto store = index::read_mapped_store(args.require("store"));
  const auto transactions = log::read_log_file(args.require("log"));
  const auto by_device = features::group_by_device(transactions);
  if (by_device.empty()) args.die("log contains no transactions");

  std::string device = args.get("device");
  if (device.empty()) {
    // Default: the busiest device; ties break to the lexicographically
    // smallest device id so the selection is stable across runs.
    std::size_t best = 0;
    for (const auto& [candidate, txns] : by_device) {
      if (txns.size() > best ||
          (txns.size() == best && !device.empty() && candidate < device)) {
        best = txns.size();
        device = candidate;
      }
    }
  } else if (!by_device.contains(device)) {
    args.die("device '" + device + "' not present in the log");
  }
  const auto smooth = static_cast<std::size_t>(args.get_int("smooth", 1));

  const core::UserIdentifier identifier{store.profiles(), store.schema(),
                                        store.window(), tier};
  const auto events = identifier.monitor(by_device.at(device));
  std::printf("device %s: %zu windows monitored\n", device.c_str(), events.size());

  std::size_t decided = 0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& event = events[i];
    std::string identity;
    if (smooth <= 1) {
      identity = core::UserIdentifier::decide_single(event);
    } else if (i + 1 >= smooth) {
      identity = core::UserIdentifier::decide_consecutive(
          std::span{events}.subspan(i + 1 - smooth, smooth), smooth);
    }
    std::string verdict = identity.empty()
                              ? (event.accepted_by.empty() ? "no profile matches"
                                                           : "ambiguous")
                              : "identified: " + identity;
    if (!identity.empty()) {
      ++decided;
      if (identity == event.true_user) ++correct;
    }
    std::printf("%s  truth=%-10s (%zu txns)  %s\n",
                util::format_timestamp(event.window_start).c_str(),
                event.true_user.c_str(), event.transaction_count,
                verdict.c_str());
  }
  if (decided > 0) {
    std::printf("\ndecisions: %zu, correct: %zu (%.1f%%)\n", decided, correct,
                100.0 * static_cast<double>(correct) / static_cast<double>(decided));
  } else {
    std::printf("\nno identity decisions at smoothing level %zu\n", smooth);
  }
  return telemetry.finish(0);
}

}  // namespace

int main(int argc, char** argv) {
  return tools::run_tool("wtp_identify", run, argc, argv);
}
