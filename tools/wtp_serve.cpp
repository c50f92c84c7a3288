// wtp_serve — online multi-device identification over a live transaction
// stream (the continuous-monitoring deployment of §IV-C, serving every
// device in the log concurrently instead of replaying one like
// wtp_identify).
//
//   wtp_serve --store profiles.wtpstore [--log monitored.csv]
//             [--smooth K] [--shards N] [--threads N]
//             [--ttl SECONDS] [--max-sessions N] [--replay-speed X]
//             [--metrics-out FILE] [--metrics-interval S] [--trace-out FILE]
//             [--listen PORT] [--port-file FILE] [--net-workers N]
//             [--queue-capacity N]
//             [--admin-port PORT] [--admin-port-file FILE]
//             [--slow-log FILE] [--slow-threshold-us N]
//             [--restore FILE] [--snapshot-out FILE]
//             [--retrain] [--retrain-interval S] [--retrain-min-windows N]
//             [--drift-threshold X] [--drift-warmup N] [--retrain-max-rate N]
//
// Two ingest modes:
//
//   * stdin/file replay (default): reads the CSV log (or stdin when --log
//     is omitted) and feeds every transaction to the ScoringEngine.  One
//     JSON-lines event is printed per scored window; the final line is an
//     engine-metrics object (formats in docs/FORMATS.md).  --replay-speed X
//     paces ingestion at X times real time (0 = as fast as possible).
//
//   * --listen PORT: epoll TCP front end on 127.0.0.1:PORT (0 = ephemeral;
//     --port-file writes the bound port).  Clients speak either wire format
//     of docs/FORMATS.md — JSON lines or binary frames, sniffed per
//     connection — and receive their devices' decision events as JSON
//     lines.  An `end` control drains + flushes the engine; `shutdown`
//     additionally stops the server.
//
// Session handoff: --snapshot-out drains the session table to a snapshot
// file at exit *instead of* flushing open windows, so a successor started
// with --restore resumes every stream byte-identically.
//
// Online retraining: --retrain starts the drift-driven retraining loop
// (window collector + background trainer, guards tuned by the retrain/drift
// flags); retrained profiles are hot-swapped into the engine while scoring
// continues.
//
// Telemetry: --metrics-out writes a JSON metrics snapshot of the global
// registry every --metrics-interval seconds (default 1; atomic rename, so
// the file always parses) and once at exit; --trace-out enables scoped
// tracing and writes Chrome trace_event JSON loadable in chrome://tracing
// or Perfetto.  Either flag also prints a run summary table to stderr.
//
// Observability (with --listen): --admin-port starts the HTTP admin plane
// on 127.0.0.1 (GET /metrics Prometheus text, /stats JSON, /healthz,
// /readyz, GET/POST /trace; 0 = ephemeral, --admin-port-file writes the
// bound port).  --slow-log FILE records the worst decisions whose
// decode+queue+ingest+score total exceeds --slow-threshold-us (default
// 1000) as JSON lines with a per-stage breakdown, written at exit.
//
// WTP_TRANSFORM_MODE=exact|relaxed selects the scoring tier (DESIGN §14;
// exact when unset) and WTP_KERNEL_BACKEND pins the kernel backend; an
// unknown value of either exits 2.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "index/mapped_store.h"
#include "log/log_io.h"
#include "serve/engine.h"
#include "serve/net/server.h"
#include "serve/retrain/collector.h"
#include "serve/retrain/trainer.h"
#include "tool_common.h"

using namespace wtp;

namespace {

bool restore_from_file(serve::ScoringEngine& engine, const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    std::fprintf(stderr, "wtp_serve: cannot open snapshot '%s'\n", path.c_str());
    return false;
  }
  engine.restore_snapshot(in);
  return true;
}

bool snapshot_to_file(serve::ScoringEngine& engine, const std::string& path) {
  std::ofstream out{path, std::ios::trunc};
  if (!out) {
    std::fprintf(stderr, "wtp_serve: cannot write snapshot '%s'\n", path.c_str());
    return false;
  }
  engine.save_snapshot(out);
  return out.good();
}

int run(int argc, char** argv) {
  const tools::Args args{argc, argv,
                         "--store FILE [--log FILE] [--smooth K] [--shards N] "
                         "[--threads N] [--ttl SECONDS] [--max-sessions N] "
                         "[--replay-speed X] [--metrics-out FILE] "
                         "[--metrics-interval S] [--trace-out FILE] "
                         "[--listen PORT] [--port-file FILE] [--net-workers N] "
                         "[--queue-capacity N] [--admin-port PORT] "
                         "[--admin-port-file FILE] [--slow-log FILE] "
                         "[--slow-threshold-us N] [--restore FILE] "
                         "[--snapshot-out FILE] [--retrain] "
                         "[--retrain-interval S] [--retrain-min-windows N] "
                         "[--drift-threshold X] [--drift-warmup N] "
                         "[--retrain-max-rate N]"};
  serve::EngineConfig config;
  config.transform = tools::scoring_tier(args);
  const auto store = index::read_mapped_store(args.require("store"));

  config.shards = static_cast<std::size_t>(args.get_int("shards", 8));
  config.smooth = static_cast<std::size_t>(args.get_int("smooth", 1));
  config.session_ttl_s = args.get_int("ttl", 0);
  config.max_sessions = static_cast<std::size_t>(args.get_int("max-sessions", 0));
  config.score_threads = static_cast<std::size_t>(args.get_int(
      "threads", static_cast<long>(std::thread::hardware_concurrency())));
  const double replay_speed = args.get_double("replay-speed", 0.0);

  // Telemetry plane: publish the engine into the global registry, start the
  // periodic snapshot writer, and turn on tracing when an export is wanted.
  // The per-kernel dot/transform split (DESIGN §14) is visible on /metrics
  // and in --metrics-out snapshots; the engine adds its relaxed-tier gauge.
  tools::Telemetry telemetry{args};
  obs::Registry& registry = telemetry.registry();
  config.registry = &registry;

  // Slow-decision attribution: decisions over the threshold keep a
  // per-stage breakdown, worst-first, dumped as JSON lines at exit.
  std::unique_ptr<obs::SlowLog> slow_log;
  if (args.has("slow-log")) {
    const long threshold_us = args.get_int("slow-threshold-us", 1000);
    slow_log = std::make_unique<obs::SlowLog>(threshold_us * 1000);
    config.slow_log = slow_log.get();
  }

  // Retraining plane: the collector plugs into the engine config, the loop
  // attaches once the engine exists.
  std::unique_ptr<serve::retrain::WindowCollector> collector;
  if (args.has("retrain")) {
    serve::retrain::CollectorConfig collect;
    collect.min_windows =
        static_cast<std::size_t>(args.get_int("retrain-min-windows", 32));
    collect.window_capacity = std::max<std::size_t>(
        collect.min_windows, collect.window_capacity);
    collect.drift.cusum_threshold = args.get_double("drift-threshold", 5.0);
    collect.drift.warmup =
        static_cast<std::size_t>(args.get_int("drift-warmup", 30));
    std::vector<std::string> users;
    users.reserve(store.profiles().size());
    for (const auto& profile : store.profiles()) {
      users.push_back(profile.user_id());
    }
    collector = std::make_unique<serve::retrain::WindowCollector>(
        users, collect, &registry);
    config.collector = collector.get();
  }
  const auto make_retrain_loop = [&](serve::ScoringEngine& engine)
      -> std::unique_ptr<serve::retrain::RetrainLoop> {
    if (!collector) return nullptr;
    serve::retrain::TrainerConfig trainer;
    trainer.poll_interval_s = args.get_double("retrain-interval", 1.0);
    trainer.max_retrains_per_cycle =
        static_cast<std::size_t>(args.get_int("retrain-max-rate", 2));
    auto loop = std::make_unique<serve::retrain::RetrainLoop>(
        engine, *collector, trainer, &registry);
    loop->start();
    return loop;
  };

  const auto finish = [&](serve::ScoringEngine& engine) -> int {
    const serve::EngineMetrics metrics = engine.metrics();
    std::puts(serve::to_json_line(metrics).c_str());
    std::fprintf(stderr,
                 "%zu transactions, %zu windows scored, %zu decisions "
                 "(%zu correct), %zu sessions (%zu evicted), "
                 "%zu profile swaps\n",
                 metrics.transactions_ingested, metrics.windows_scored,
                 metrics.decisions_emitted, metrics.correct_decisions,
                 metrics.sessions_created, metrics.sessions_evicted,
                 metrics.profile_swaps);
    if (const int code = telemetry.finish(0); code != 0) return code;
    if (slow_log != nullptr) {
      const std::string path = args.require("slow-log");
      if (!slow_log->write_file(path)) {
        std::fprintf(stderr, "wtp_serve: cannot write slow log '%s'\n",
                     path.c_str());
        return 1;
      }
      std::fprintf(stderr,
                   "wtp_serve: %zu decisions over threshold, worst %zu in %s\n",
                   static_cast<std::size_t>(slow_log->over_threshold()),
                   slow_log->worst().size(), path.c_str());
    }
    return 0;
  };

  if (args.has("listen")) {
    serve::net::NetServerConfig net;
    net.port = static_cast<std::uint16_t>(args.get_int("listen", 0));
    net.ingest_workers =
        static_cast<std::size_t>(args.get_int("net-workers", 4));
    net.queue_capacity =
        static_cast<std::size_t>(args.get_int("queue-capacity", 4096));
    if (args.has("admin-port")) {
      net.admin = true;
      net.admin_port = static_cast<std::uint16_t>(args.get_int("admin-port", 0));
    }
    serve::net::NetServer server{store, config, net};
    if (args.has("restore") &&
        !restore_from_file(server.engine(), args.require("restore"))) {
      return 1;
    }
    if (args.has("port-file")) {
      std::ofstream port_file{args.require("port-file"), std::ios::trunc};
      port_file << server.port() << '\n';
      if (!port_file.good()) {
        std::fprintf(stderr, "wtp_serve: cannot write port file\n");
        return 1;
      }
    }
    if (args.has("admin-port-file")) {
      std::ofstream admin_file{args.require("admin-port-file"), std::ios::trunc};
      admin_file << server.admin_port() << '\n';
      if (!admin_file.good()) {
        std::fprintf(stderr, "wtp_serve: cannot write admin port file\n");
        return 1;
      }
    }
    std::fprintf(stderr, "wtp_serve: listening on 127.0.0.1:%u\n",
                 static_cast<unsigned>(server.port()));
    if (net.admin) {
      std::fprintf(stderr, "wtp_serve: admin on 127.0.0.1:%u\n",
                   static_cast<unsigned>(server.admin_port()));
    }
    server.start();
    auto retrain_loop = make_retrain_loop(server.engine());
    server.wait_for_shutdown();
    if (retrain_loop) retrain_loop->stop();
    server.stop();
    if (args.has("snapshot-out") &&
        !snapshot_to_file(server.engine(), args.require("snapshot-out"))) {
      return 1;
    }
    return finish(server.engine());
  }

  serve::ScoringEngine engine{store, config, [](const serve::DecisionEvent& event) {
                                std::puts(serve::to_json_line(event).c_str());
                              }};
  if (args.has("restore") &&
      !restore_from_file(engine, args.require("restore"))) {
    return 1;
  }
  auto retrain_loop = make_retrain_loop(engine);

  std::ifstream file;
  if (args.has("log")) {
    file.open(args.require("log"));
    if (!file) args.die("cannot open log '" + args.get("log") + "'");
  }
  std::istream& in = args.has("log") ? static_cast<std::istream&>(file) : std::cin;

  log::LogReader reader{in};
  log::WebTransaction txn;
  bool first = true;
  util::UnixSeconds first_timestamp = 0;
  const auto wall_start = std::chrono::steady_clock::now();
  try {
    while (reader.next(txn)) {
      if (first) {
        first = false;
        first_timestamp = txn.timestamp;
      } else if (replay_speed > 0.0) {
        // Pace: the txn is due (ts - t0) / speed seconds after the wall start.
        const auto due = wall_start + std::chrono::duration_cast<
                                          std::chrono::steady_clock::duration>(
                                          std::chrono::duration<double>(
                                              static_cast<double>(txn.timestamp -
                                                                  first_timestamp) /
                                              replay_speed));
        std::this_thread::sleep_until(due);
      }
      engine.ingest(txn);
    }
  } catch (const std::exception& error) {
    // Malformed input is surfaced, not coerced (log parsers are strict);
    // still exit cleanly instead of std::terminate mid-stream.
    std::fprintf(stderr, "wtp_serve: fatal stream error: %s\n", error.what());
    return 1;
  }
  if (retrain_loop) retrain_loop->stop();
  if (args.has("snapshot-out")) {
    // Drain, don't flush: open windows ride along to the successor.
    if (!snapshot_to_file(engine, args.require("snapshot-out"))) return 1;
  } else {
    engine.flush();
  }
  return finish(engine);
}

}  // namespace

int main(int argc, char** argv) {
  return tools::run_tool("wtp_serve", run, argc, argv);
}
