// Epoll-based TCP serving front end (the network layer of the ROADMAP's
// "real service" item; wire formats in serve/net/wire.h, telemetry on the
// obs registry).
//
// Threading model:
//
//   * one event-loop thread owns every socket: it accepts connections,
//     reads bytes into per-connection FrameDecoders (read buffers are
//     bounded by max_message_bytes), and flushes per-connection outbound
//     buffers under EPOLLOUT;
//   * N ingest workers each own one bounded IngestQueue; a decoded
//     transaction is routed to queue hash(device_id) % N, so one device's
//     stream is always replayed by one worker in arrival order — exactly
//     the per-device ordering contract ScoringEngine::ingest requires;
//   * decision events come back through the engine sink on whichever
//     worker scored the window; the sink routes each event to the
//     connection that last carried the device (device -> connection map)
//     by appending to its outbound buffer and waking the event loop.
//
// Backpressure is explicit everywhere: a full ingest queue drops the
// transaction, bumps net.ingest_dropped, and replies a "backpressure"
// event; an outbound buffer past max_outbound_bytes marks the peer a slow
// reader, bumps net.slow_reader_disconnects, and closes the connection.
// Malformed, oversized, or mid-frame-truncated input closes only the
// offending connection — never the engine or another session.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/registry.h"
#include "serve/decision_trace.h"
#include "serve/engine.h"
#include "serve/net/http.h"
#include "serve/net/ingest_queue.h"
#include "serve/net/wire.h"

namespace wtp::serve::net {

struct NetServerConfig {
  /// TCP port to bind on 127.0.0.1 (0 = ephemeral; read back via port()).
  std::uint16_t port = 0;
  /// Ingest worker threads; each owns one bounded queue, devices are
  /// hash-routed so a device's stream stays on one worker.
  std::size_t ingest_workers = 4;
  /// Transactions a worker queue holds before try_push fails and the
  /// transaction is dropped with a backpressure reply.
  std::size_t queue_capacity = 4096;
  /// Upper bound on one binary frame payload / one JSON text line.
  std::size_t max_message_bytes = std::size_t{1} << 20;
  /// Outbound bytes buffered for a connection before it is declared a slow
  /// reader and disconnected.
  std::size_t max_outbound_bytes = std::size_t{8} << 20;
  /// Enables the HTTP admin plane: a second listener on 127.0.0.1 sharing
  /// the event loop, serving GET /metrics (Prometheus text), /stats (JSON),
  /// /healthz, /readyz, GET/POST /trace (runtime trace control + Chrome
  /// export).  Read-mostly: an admin scrape never takes an engine or
  /// ingest-path lock.
  bool admin = false;
  /// Admin TCP port (0 = ephemeral; read back via admin_port()).
  std::uint16_t admin_port = 0;
};

/// Owns the ScoringEngine it serves (the engine's sink is the server's
/// decision router, so the two are constructed together).
class NetServer {
 public:
  /// Binds and listens immediately (throws std::system_error on failure)
  /// but serves nothing until start().  `engine_config.registry` selects
  /// where both engine and net metrics land; nullptr gives engine + server
  /// a shared private registry (exposed via registry()).
  NetServer(const core::ProfileStore& store, EngineConfig engine_config,
            NetServerConfig config);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Spawns the event loop and ingest workers.
  void start();

  /// Blocks until a client sends a `shutdown` control or request_stop() is
  /// called from another thread.
  void wait_for_shutdown();

  /// Unblocks wait_for_shutdown(); safe from any thread / signal context?
  /// no — from threads only (takes a mutex).
  void request_stop();

  /// Graceful shutdown: stop accepting, drain the ingest queues, flush
  /// outbound replies, join every thread.  Idempotent.
  void stop();

  /// The bound port (valid after construction).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// The bound admin port (0 when the admin plane is disabled).
  [[nodiscard]] std::uint16_t admin_port() const noexcept { return admin_port_; }

  /// Readiness as /readyz reports it: started, accepting, not draining.
  [[nodiscard]] bool ready() const noexcept {
    return ready_.load(std::memory_order_acquire) &&
           accepting_.load(std::memory_order_acquire) &&
           !draining_.load(std::memory_order_acquire);
  }

  [[nodiscard]] ScoringEngine& engine() noexcept { return *engine_; }
  [[nodiscard]] const ScoringEngine& engine() const noexcept { return *engine_; }
  [[nodiscard]] obs::Registry& registry() noexcept { return *registry_; }

 private:
  struct Connection;
  struct EndBarrier;

  struct QueueItem {
    enum class Kind : std::uint8_t { kTransaction, kBarrier, kPoison };
    Kind kind = Kind::kTransaction;
    log::WebTransaction txn;
    std::shared_ptr<Connection> conn;
    std::shared_ptr<EndBarrier> barrier;
    DecisionTrace trace;  ///< per-decision context (decode stamp, ids)
  };

  /// net.* counter handles, resolved once.
  struct Metrics {
    obs::Counter& accepted;
    obs::Counter& closed;
    obs::Counter& transactions;
    obs::Counter& malformed;
    obs::Counter& truncated;
    obs::Counter& dropped;
    obs::Counter& rejected;
    obs::Counter& slow_readers;
    obs::Counter& backpressure;
    obs::Counter& decisions_sent;
    obs::Counter& decisions_orphaned;
    obs::Counter& admin_requests;
    obs::Gauge& connections_active;
    obs::Timer& decode_ns;

    explicit Metrics(obs::Registry& registry);
  };

  /// Per-worker {worker=N}-labeled handles (slow-path attribution of drops
  /// and queue residency to the queue that caused them).  The unlabeled
  /// aggregates above keep counting alongside.
  struct WorkerMetrics {
    obs::Counter& dropped;
    obs::Counter& backpressure;
    obs::Timer& queue_wait_ns;

    WorkerMetrics(obs::Registry& registry, std::size_t worker);
  };

  void event_loop();
  void worker_loop(std::size_t queue_index);

  void accept_ready(int listen_fd, bool admin);
  void read_ready(const std::shared_ptr<Connection>& conn);
  void read_ready_admin(const std::shared_ptr<Connection>& conn);
  void write_ready(const std::shared_ptr<Connection>& conn);
  void close_connection(const std::shared_ptr<Connection>& conn);
  void handle_message(const std::shared_ptr<Connection>& conn,
                      WireMessage&& message, std::int64_t decode_ns,
                      std::int64_t now_ns);
  void handle_admin_request(const std::shared_ptr<Connection>& conn,
                            const HttpRequest& request);
  [[nodiscard]] std::string stats_json() const;

  /// Engine sink: routes a decision to the connection that owns the device.
  void route_decision(const DecisionEvent& event);

  /// Appends one reply line to the connection's outbound buffer (slow-reader
  /// cutoff applied) and wakes the event loop.  Thread-safe.
  void send_line(const std::shared_ptr<Connection>& conn, std::string_view line);
  /// send_line without the newline framing (admin HTTP responses).
  void send_bytes(const std::shared_ptr<Connection>& conn,
                  std::string_view bytes, bool newline);

  void wake_event_loop();
  void update_epoll_interest(const std::shared_ptr<Connection>& conn);

  NetServerConfig config_;
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_ = nullptr;
  std::unique_ptr<ScoringEngine> engine_;
  Metrics metrics_;
  std::vector<WorkerMetrics> worker_metrics_;

  int listen_fd_ = -1;
  int admin_listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint16_t admin_port_ = 0;

  std::vector<std::unique_ptr<IngestQueue<QueueItem>>> queues_;
  std::vector<std::thread> workers_;
  std::thread event_thread_;

  /// device id -> connection that most recently carried it (decision
  /// routing).  Guarded by device_map_mutex_.
  std::mutex device_map_mutex_;
  std::unordered_map<std::string, std::weak_ptr<Connection>, util::TransparentStringHash,
                     std::equal_to<>>
      device_map_;

  /// Connections, keyed by fd.  Event-loop thread only.
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;

  std::mutex lifecycle_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  bool started_ = false;
  bool stopped_ = false;
  std::atomic<bool> draining_{false};
  std::atomic<bool> accepting_{true};
  std::atomic<bool> ready_{false};  ///< start() reached (readiness probe)
  /// Internal flow-id allocator for sampled decision traces (never 0).
  std::atomic<std::uint64_t> next_flow_{1};
  /// True while an eventfd wake is outstanding (wake_event_loop coalescing).
  std::atomic<bool> wake_pending_{false};
};

}  // namespace wtp::serve::net
