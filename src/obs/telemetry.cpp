#include "obs/telemetry.h"

#include <chrono>
#include <cstdio>

#include "util/strings.h"
#include "util/table.h"

namespace wtp::obs {
namespace {

constexpr double kNanosPerMicro = 1000.0;

bool write_file_atomic(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "w");
  if (file == nullptr) return false;
  const std::size_t written =
      std::fwrite(contents.data(), 1, contents.size(), file);
  const bool ok = written == contents.size() && std::fclose(file) == 0;
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

void register_common_metrics(Registry& registry) {
  for (const char* name :
       {"serve.transactions_ingested", "serve.windows_scored",
        "serve.decisions_emitted", "serve.correct_decisions",
        "serve.sessions_created", "serve.sessions_evicted",
        "solver.path_columns", "grid.window_cells", "grid.columns",
        "grid.untrainable_cells", "grid.pair_blocks"}) {
    (void)registry.counter(name);
  }
  // The solver publishes per-kernel series (names must match
  // svm::to_string(KernelType); wtp_obs sits below wtp_svm so they are
  // spelled out here).
  for (const char* kernel : {"linear", "polynomial", "rbf", "sigmoid"}) {
    const Label label{"kernel", kernel};
    const std::span<const Label> labels{&label, 1};
    for (const char* name :
         {"solver.solves", "solver.iterations", "solver.shrink_events",
          "solver.shrunk_variables", "solver.reconstructions",
          "solver.cache_hits", "solver.cache_misses"}) {
      (void)registry.counter(name, labels);
    }
    (void)registry.timer("solver.solve", labels);
  }
  for (const char* mode : {"warm", "cold"}) {
    const Label label{"mode", mode};
    (void)registry.counter("grid.cells", {&label, 1});
  }
  (void)registry.gauge("serve.sessions_active");
  (void)registry.timer("serve.ingest");
  (void)registry.timer("serve.score");
  // Network front end (aggregate series; NetServer adds per-worker labeled
  // variants for its own worker count at construction).
  for (const char* name :
       {"net.connections_accepted", "net.connections_closed",
        "net.transactions_received", "net.malformed_input",
        "net.truncated_disconnects", "net.ingest_dropped",
        "net.rejected_transactions", "net.slow_reader_disconnects",
        "net.backpressure_replies", "net.decisions_sent",
        "net.decisions_orphaned", "net.admin_requests"}) {
    (void)registry.counter(name);
  }
  (void)registry.gauge("net.connections_active");
  (void)registry.timer("net.decode");
  (void)registry.timer("net.queue_wait");
}

MetricsFileWriter::MetricsFileWriter(Registry& registry, std::string path,
                                     double interval_seconds)
    : registry_(registry), path_(std::move(path)) {
  thread_ = std::thread([this, interval_seconds] { run(interval_seconds); });
}

MetricsFileWriter::~MetricsFileWriter() { stop(); }

void MetricsFileWriter::stop() {
  {
    std::lock_guard lock(mutex_);
    if (stopped_) return;
    stopping_ = true;
    stopped_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  if (!write_snapshot()) {
    std::fprintf(stderr, "wtp: failed to write metrics snapshot to %s\n",
                 path_.c_str());
  }
}

void MetricsFileWriter::run(double interval_seconds) {
  const auto interval = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::duration<double>(interval_seconds < 0.01 ? 0.01
                                                            : interval_seconds));
  std::unique_lock lock(mutex_);
  while (!stopping_) {
    if (cv_.wait_for(lock, interval, [this] { return stopping_; })) break;
    lock.unlock();
    (void)write_snapshot();  // final stop() write reports failures
    lock.lock();
  }
}

bool MetricsFileWriter::write_snapshot() const {
  return write_file_atomic(path_, to_json(registry_.snapshot(false)) + "\n");
}

bool write_trace_file(const TraceRecorder& recorder, const std::string& path) {
  if (!write_file_atomic(path, recorder.chrome_trace_json() + "\n")) {
    std::fprintf(stderr, "wtp: failed to write trace to %s\n", path.c_str());
    return false;
  }
  return true;
}

std::string summary_table(const Snapshot& snapshot) {
  util::TextTable table;
  table.set_header({"metric", "count", "value/mean_us", "p50_us", "p99_us",
                    "max_us"});
  for (const auto& entry : snapshot.counters) {
    if (entry.value == 0) continue;
    table.add_row({canonical_key(entry.name, entry.labels), "",
                   std::to_string(entry.value)});
  }
  for (const auto& entry : snapshot.gauges) {
    if (entry.value == 0.0) continue;
    table.add_row({canonical_key(entry.name, entry.labels), "",
                   util::format_double(entry.value, 0)});
  }
  for (const auto& entry : snapshot.timers) {
    const util::LatencyHistogram& h = entry.histogram;
    if (h.count() == 0) continue;
    table.add_row({canonical_key(entry.name, entry.labels),
                   std::to_string(h.count()),
                   util::format_double(h.mean() / kNanosPerMicro, 1),
                   util::format_double(h.quantile(0.50) / kNanosPerMicro, 1),
                   util::format_double(h.quantile(0.99) / kNanosPerMicro, 1),
                   util::format_double(h.max() / kNanosPerMicro, 1)});
  }
  return table.render("run metrics");
}

}  // namespace wtp::obs
