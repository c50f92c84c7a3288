#include "serve/net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <system_error>
#include <utility>

#include "obs/trace.h"
#include "serve/event.h"
#include "serve/metrics.h"
#include "util/strings.h"

namespace wtp::serve::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error{errno, std::generic_category(), what};
}

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

std::string error_line(std::string_view message) {
  return "{\"type\":\"error\",\"error\":\"" + util::json_escape(message) +
         "\"}";
}

/// Bound, listening, non-blocking loopback socket; writes the actual port
/// (for port = 0 ephemeral binds) to *bound_port.
int make_listen_socket(std::uint16_t port, std::uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("bind");
  }
  if (::listen(fd, 128) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("listen");
  }
  socklen_t addr_len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("getsockname");
  }
  *bound_port = ntohs(addr.sin_port);
  set_nonblocking(fd);
  return fd;
}

}  // namespace

/// Per-connection state.  The event-loop thread owns the fd and the
/// decoder; workers touch only the outbound buffer (under its mutex) and
/// the atomic flags.
struct NetServer::Connection {
  Connection(int descriptor, std::size_t max_message_bytes, bool is_admin)
      : fd{descriptor}, admin{is_admin}, decoder{max_message_bytes} {}

  const int fd;
  const bool admin;     ///< HTTP admin connection (http parser, no decoder)
  FrameDecoder decoder;
  HttpParser http;

  std::mutex out_mutex;
  std::string outbound;       ///< pending reply bytes (guarded by out_mutex)
  std::uint32_t interest = 0; ///< epoll events currently registered

  std::atomic<bool> read_closed{false};       ///< stop decoding (fatal input)
  std::atomic<bool> close_after_flush{false}; ///< close once outbound drains
  std::atomic<bool> overflowed{false};        ///< slow reader: close now
};

/// One `end` / `shutdown` control fanned out to every ingest queue; the
/// worker that consumes the last copy knows all transactions enqueued
/// before the control have been ingested, and performs the drain.
struct NetServer::EndBarrier {
  std::atomic<std::size_t> remaining;
  std::shared_ptr<Connection> conn;
  bool shutdown = false;

  EndBarrier(std::size_t queues, std::shared_ptr<Connection> connection,
             bool stop_server)
      : remaining{queues}, conn{std::move(connection)}, shutdown{stop_server} {}
};

NetServer::Metrics::Metrics(obs::Registry& registry)
    : accepted{registry.counter("net.connections_accepted")},
      closed{registry.counter("net.connections_closed")},
      transactions{registry.counter("net.transactions_received")},
      malformed{registry.counter("net.malformed_input")},
      truncated{registry.counter("net.truncated_disconnects")},
      dropped{registry.counter("net.ingest_dropped")},
      rejected{registry.counter("net.rejected_transactions")},
      slow_readers{registry.counter("net.slow_reader_disconnects")},
      backpressure{registry.counter("net.backpressure_replies")},
      decisions_sent{registry.counter("net.decisions_sent")},
      decisions_orphaned{registry.counter("net.decisions_orphaned")},
      admin_requests{registry.counter("net.admin_requests")},
      connections_active{registry.gauge("net.connections_active")},
      decode_ns{registry.timer("net.decode")} {}

NetServer::WorkerMetrics::WorkerMetrics(obs::Registry& registry,
                                        std::size_t worker)
    : dropped{[&registry, worker]() -> obs::Counter& {
        const obs::Label label{"worker", std::to_string(worker)};
        return registry.counter("net.ingest_dropped", std::span{&label, 1});
      }()},
      backpressure{[&registry, worker]() -> obs::Counter& {
        const obs::Label label{"worker", std::to_string(worker)};
        return registry.counter("net.backpressure_replies",
                                std::span{&label, 1});
      }()},
      queue_wait_ns{[&registry, worker]() -> obs::Timer& {
        const obs::Label label{"worker", std::to_string(worker)};
        return registry.timer("net.queue_wait", std::span{&label, 1});
      }()} {}

NetServer::NetServer(const core::ProfileStore& store,
                     EngineConfig engine_config, NetServerConfig config)
    : config_{config},
      owned_registry_{engine_config.registry == nullptr
                          ? std::make_unique<obs::Registry>()
                          : nullptr},
      registry_{engine_config.registry != nullptr ? engine_config.registry
                                                  : owned_registry_.get()},
      metrics_{*registry_} {
  if (config_.ingest_workers == 0) {
    throw std::invalid_argument{"NetServer: ingest_workers must be >= 1"};
  }
  if (config_.queue_capacity == 0) {
    throw std::invalid_argument{"NetServer: queue_capacity must be >= 1"};
  }
  engine_config.registry = registry_;
  engine_ = std::make_unique<ScoringEngine>(
      store, engine_config,
      [this](const DecisionEvent& event) { route_decision(event); });

  queues_.reserve(config_.ingest_workers);
  worker_metrics_.reserve(config_.ingest_workers);
  for (std::size_t q = 0; q < config_.ingest_workers; ++q) {
    queues_.push_back(
        std::make_unique<IngestQueue<QueueItem>>(config_.queue_capacity));
    worker_metrics_.emplace_back(*registry_, q);
  }

  listen_fd_ = make_listen_socket(config_.port, &port_);
  if (config_.admin) {
    admin_listen_fd_ = make_listen_socket(config_.admin_port, &admin_port_);
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) throw_errno("eventfd");

  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &event) < 0) {
    throw_errno("epoll_ctl(listen)");
  }
  if (admin_listen_fd_ >= 0) {
    event.data.fd = admin_listen_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, admin_listen_fd_, &event) < 0) {
      throw_errno("epoll_ctl(admin listen)");
    }
  }
  event.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event) < 0) {
    throw_errno("epoll_ctl(wake)");
  }
}

NetServer::~NetServer() {
  stop();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (admin_listen_fd_ >= 0) ::close(admin_listen_fd_);
}

void NetServer::start() {
  const std::lock_guard lock{lifecycle_mutex_};
  if (started_) return;
  started_ = true;
  for (std::size_t q = 0; q < queues_.size(); ++q) {
    workers_.emplace_back([this, q] { worker_loop(q); });
  }
  event_thread_ = std::thread{[this] { event_loop(); }};
  ready_.store(true, std::memory_order_release);
}

void NetServer::wait_for_shutdown() {
  std::unique_lock lock{lifecycle_mutex_};
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
}

void NetServer::request_stop() {
  {
    const std::lock_guard lock{lifecycle_mutex_};
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void NetServer::stop() {
  {
    const std::lock_guard lock{lifecycle_mutex_};
    if (!started_ || stopped_) return;
    stopped_ = true;
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();

  // 1. Stop admitting connections and input; 2. drain the workers; 3. let
  // the event loop flush outbound replies and close everything.
  ready_.store(false, std::memory_order_release);
  accepting_.store(false, std::memory_order_release);
  wake_event_loop();
  for (auto& queue : queues_) {
    queue->push_unbounded(QueueItem{QueueItem::Kind::kPoison, {}, nullptr,
                                    nullptr, {}});
  }
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  draining_.store(true, std::memory_order_release);
  wake_event_loop();
  if (event_thread_.joinable()) event_thread_.join();
}

void NetServer::wake_event_loop() {
  // Coalesced: workers emit one reply per scored window, and uncoalesced
  // each reply would cost an eventfd write plus an event-loop wakeup.  The
  // loop sweeps every connection's outbound per iteration, so one pending
  // wake covers any number of senders; the flag is re-armed by the loop
  // before it sweeps, which makes a lost wakeup impossible (a sender that
  // appends after the re-arm writes the eventfd again).
  if (wake_pending_.exchange(true, std::memory_order_acq_rel)) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void NetServer::send_bytes(const std::shared_ptr<Connection>& conn,
                           std::string_view bytes, bool newline) {
  if (conn == nullptr) return;
  {
    const std::lock_guard lock{conn->out_mutex};
    if (conn->overflowed.load(std::memory_order_relaxed)) return;
    const std::size_t framed = bytes.size() + (newline ? 1 : 0);
    // The slow-reader cap protects the data plane, where workers keep
    // appending decisions to a reader that stopped consuming.  Admin
    // connections are strict request->response: outbound is bounded by one
    // response (a full trace export can legitimately exceed the cap).
    if (!conn->admin &&
        conn->outbound.size() + framed > config_.max_outbound_bytes) {
      conn->overflowed.store(true, std::memory_order_release);
      metrics_.slow_readers.add(1);
    } else {
      conn->outbound.append(bytes);
      if (newline) conn->outbound.push_back('\n');
    }
  }
  wake_event_loop();
}

void NetServer::send_line(const std::shared_ptr<Connection>& conn,
                          std::string_view line) {
  send_bytes(conn, line, true);
}

void NetServer::route_decision(const DecisionEvent& event) {
  std::shared_ptr<Connection> conn;
  {
    const std::lock_guard lock{device_map_mutex_};
    const auto it = device_map_.find(event.device_id);
    if (it != device_map_.end()) conn = it->second.lock();
  }
  if (conn == nullptr) {
    // The carrying connection is gone (or the window surfaced before any
    // network ingest, e.g. an engine-side restore); the decision still
    // counted in the engine metrics, it just has no reader.
    metrics_.decisions_orphaned.add(1);
    return;
  }
  metrics_.decisions_sent.add(1);
  if (event.trace_flow != 0) {
    auto& recorder = obs::TraceRecorder::global();
    const std::int64_t start = recorder.now_ns();
    send_line(conn, serve::to_json_line(event));
    obs::TraceRecorder::Event span;
    span.name = "decision.reply";
    span.category = "decision";
    span.start_ns = start;
    span.duration_ns = recorder.now_ns() - start;
    span.flow = event.trace_flow;
    recorder.record(span);
    return;
  }
  send_line(conn, serve::to_json_line(event));
}

void NetServer::handle_message(const std::shared_ptr<Connection>& conn,
                               WireMessage&& message, std::int64_t decode_ns,
                               std::int64_t now_ns) {
  if (message.type == FrameType::kTransaction) {
    metrics_.transactions.add(1);
    const std::size_t queue_index =
        device_shard(message.txn.device_id, queues_.size());
    {
      const std::lock_guard lock{device_map_mutex_};
      const auto it = device_map_.find(message.txn.device_id);
      if (it == device_map_.end()) {
        device_map_.emplace(message.txn.device_id, conn);
      } else {
        it->second = conn;
      }
    }
    auto& recorder = obs::TraceRecorder::global();
    QueueItem item;
    item.kind = QueueItem::Kind::kTransaction;
    item.txn = std::move(message.txn);
    item.conn = conn;
    item.trace.id = message.trace_id;
    item.trace.decode_ns = decode_ns;
    if (recorder.enabled() && recorder.sample()) {
      // Sampled into the server-side trace: one internal flow id groups
      // this decision's spans; the id never leaves the process.
      item.trace.flow = next_flow_.fetch_add(1, std::memory_order_relaxed);
      obs::TraceRecorder::Event span;
      span.name = "decision.decode";
      span.category = "decision";
      span.start_ns = now_ns - decode_ns;
      span.duration_ns = decode_ns;
      span.flow = item.trace.flow;
      recorder.record(span);
    }
    // The caller's post-decode stamp doubles as the enqueue time; the gap
    // (hash + map upsert) is noise at queue-wait resolution and saves a
    // clock read per transaction on the event loop.
    item.trace.enqueue_ns = now_ns;
    if (!queues_[queue_index]->try_push(std::move(item))) {
      metrics_.dropped.add(1);
      metrics_.backpressure.add(1);
      worker_metrics_[queue_index].dropped.add(1);
      worker_metrics_[queue_index].backpressure.add(1);
      send_line(conn,
                "{\"type\":\"backpressure\",\"queue\":" +
                    std::to_string(queue_index) + ",\"dropped_total\":" +
                    std::to_string(metrics_.dropped.value()) + "}");
    }
    return;
  }
  // end / shutdown: fan a barrier out to every queue; the worker that sees
  // the last copy performs the drain (all transactions enqueued before the
  // control are already ingested by then).
  const bool shutdown = message.type == FrameType::kShutdown;
  auto barrier =
      std::make_shared<EndBarrier>(queues_.size(), conn, shutdown);
  for (auto& queue : queues_) {
    QueueItem item;
    item.kind = QueueItem::Kind::kBarrier;
    item.barrier = barrier;
    queue->push_unbounded(std::move(item));
  }
  conn->read_closed.store(true, std::memory_order_release);
}

void NetServer::worker_loop(std::size_t queue_index) {
  IngestQueue<QueueItem>& queue = *queues_[queue_index];
  WorkerMetrics& worker = worker_metrics_[queue_index];
  auto& recorder = obs::TraceRecorder::global();
  while (true) {
    QueueItem item = queue.pop();
    switch (item.kind) {
      case QueueItem::Kind::kPoison:
        return;
      case QueueItem::Kind::kTransaction:
        try {
          if (item.trace.enqueue_ns > 0) {
            item.trace.queue_ns = recorder.now_ns() - item.trace.enqueue_ns;
            worker.queue_wait_ns.record_ns(
                static_cast<double>(item.trace.queue_ns));
            if (item.trace.flow != 0) {
              obs::TraceRecorder::Event span;
              span.name = "decision.queue";
              span.category = "decision";
              span.start_ns = item.trace.enqueue_ns;
              span.duration_ns = item.trace.queue_ns;
              span.flow = item.trace.flow;
              recorder.record(span);
            }
          }
          engine_->ingest(item.txn, item.trace);
        } catch (const std::exception& error) {
          // A rejected transaction (e.g. per-device time order) poisons
          // nothing: the offending client gets an error event, every other
          // session keeps scoring.
          metrics_.rejected.add(1);
          send_line(item.conn, error_line(error.what()));
        }
        break;
      case QueueItem::Kind::kBarrier:
        if (item.barrier->remaining.fetch_sub(1,
                                              std::memory_order_acq_rel) == 1) {
          engine_->flush();
          send_line(item.barrier->conn,
                    serve::to_json_line(engine_->metrics()));
          if (item.barrier->conn != nullptr) {
            item.barrier->conn->close_after_flush.store(
                true, std::memory_order_release);
          }
          wake_event_loop();
          if (item.barrier->shutdown) request_stop();
        }
        break;
    }
  }
}

void NetServer::accept_ready(int listen_fd, bool admin) {
  while (true) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: nothing to accept
    if (!accepting_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn =
        std::make_shared<Connection>(fd, config_.max_message_bytes, admin);
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) < 0) {
      ::close(fd);
      continue;
    }
    conn->interest = EPOLLIN;
    connections_.emplace(fd, std::move(conn));
    metrics_.accepted.add(1);
    metrics_.connections_active.add(1.0);
  }
}

void NetServer::read_ready(const std::shared_ptr<Connection>& conn) {
  if (conn->read_closed.load(std::memory_order_acquire)) {
    // Sink any bytes the peer still sends after a fatal protocol error or
    // an end control; the kernel buffer must not wedge the event loop.
    char sink[4096];
    while (::recv(conn->fd, sink, sizeof sink, 0) > 0) {
    }
    return;
  }
  if (conn->admin) {
    read_ready_admin(conn);
    return;
  }
  auto& recorder = obs::TraceRecorder::global();
  char buffer[65536];
  while (true) {
    const ssize_t n = ::recv(conn->fd, buffer, sizeof buffer, 0);
    if (n > 0) {
      try {
        // Per-message decode attribution: the delta between successive
        // callback firings covers that message's decode plus the previous
        // message's enqueue (hash + try_push — noise at this resolution,
        // and folding it in costs one clock read per message instead of
        // three).
        std::int64_t last = recorder.now_ns();
        conn->decoder.feed(std::string_view{buffer, static_cast<std::size_t>(n)},
                           [this, &conn, &last, &recorder](WireMessage&& message) {
                             const std::int64_t now = recorder.now_ns();
                             const std::int64_t decode_ns = now - last;
                             metrics_.decode_ns.record_ns(
                                 static_cast<double>(decode_ns));
                             handle_message(conn, std::move(message), decode_ns,
                                            now);
                             last = now;
                           });
      } catch (const WireError& error) {
        metrics_.malformed.add(1);
        send_line(conn, error_line(error.what()));
        conn->read_closed.store(true, std::memory_order_release);
        conn->close_after_flush.store(true, std::memory_order_release);
        return;
      }
      continue;
    }
    if (n == 0) {
      // Peer closed.  A half-delivered frame is a truncation, counted but
      // harmless to everyone else.
      if (conn->decoder.mid_message()) metrics_.truncated.add(1);
      close_connection(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    close_connection(conn);  // ECONNRESET and friends
    return;
  }
}

void NetServer::read_ready_admin(const std::shared_ptr<Connection>& conn) {
  char buffer[16384];
  while (true) {
    const ssize_t n = ::recv(conn->fd, buffer, sizeof buffer, 0);
    if (n > 0) {
      try {
        conn->http.feed(std::string_view{buffer, static_cast<std::size_t>(n)},
                        [this, &conn](HttpRequest&& request) {
                          handle_admin_request(conn, request);
                        });
      } catch (const HttpError& error) {
        metrics_.malformed.add(1);
        send_bytes(conn,
                   http_response(400, "text/plain",
                                 std::string{error.what()} + "\n", false),
                   false);
        conn->read_closed.store(true, std::memory_order_release);
        conn->close_after_flush.store(true, std::memory_order_release);
        return;
      }
      continue;
    }
    if (n == 0) {
      // Peer half-closed (Connection: close clients shut down their write
      // side right after the request): stop reading but let any pending
      // response flush before the sweep closes the connection.
      if (conn->http.mid_request()) metrics_.truncated.add(1);
      conn->read_closed.store(true, std::memory_order_release);
      conn->close_after_flush.store(true, std::memory_order_release);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    close_connection(conn);
    return;
  }
}

std::string NetServer::stats_json() const {
  auto& recorder = obs::TraceRecorder::global();
  std::string out = "{\"type\":\"stats\",\"ready\":";
  out += ready() ? "true" : "false";
  out += ",\"port\":" + std::to_string(port_);
  out += ",\"admin_port\":" + std::to_string(admin_port_);
  out += ",\"ingest_workers\":" + std::to_string(queues_.size());
  out += ",\"trace_enabled\":";
  out += recorder.enabled() ? "true" : "false";
  out += ",\"trace_sample\":" + std::to_string(recorder.sample_rate());
  out += ",\"engine\":" + serve::to_json_line(engine_->metrics());
  out += ",\"metrics\":" + obs::to_json(registry_->snapshot(false));
  out += '}';
  return out;
}

void NetServer::handle_admin_request(const std::shared_ptr<Connection>& conn,
                                     const HttpRequest& request) {
  metrics_.admin_requests.add(1);
  const bool keep = request.keep_alive;
  const auto respond = [this, &conn, keep](int status, std::string_view type,
                                           std::string_view body) {
    send_bytes(conn, http_response(status, type, body, keep), false);
    if (!keep) {
      conn->read_closed.store(true, std::memory_order_release);
      conn->close_after_flush.store(true, std::memory_order_release);
    }
  };
  auto& recorder = obs::TraceRecorder::global();

  if (request.path == "/metrics") {
    if (request.method != "GET") {
      respond(405, "text/plain", "method not allowed\n");
      return;
    }
    respond(200, "text/plain; version=0.0.4; charset=utf-8",
            obs::to_prometheus(registry_->snapshot(false)));
    return;
  }
  if (request.path == "/stats") {
    if (request.method != "GET") {
      respond(405, "text/plain", "method not allowed\n");
      return;
    }
    respond(200, "application/json", stats_json());
    return;
  }
  if (request.path == "/healthz") {
    if (request.method != "GET") {
      respond(405, "text/plain", "method not allowed\n");
      return;
    }
    respond(200, "text/plain", "ok\n");
    return;
  }
  if (request.path == "/readyz") {
    if (request.method != "GET") {
      respond(405, "text/plain", "method not allowed\n");
      return;
    }
    if (ready()) {
      respond(200, "text/plain", "ready\n");
    } else {
      respond(503, "text/plain", "not ready\n");
    }
    return;
  }
  if (request.path == "/trace") {
    if (request.method == "GET") {
      respond(200, "application/json", recorder.chrome_trace_json());
      return;
    }
    if (request.method != "POST") {
      respond(405, "text/plain", "method not allowed\n");
      return;
    }
    // POST /trace?enable=1&sample=0.01&capacity=65536 — runtime tracing
    // control.  enable re-arms (clearing prior events and resetting the
    // sample rate, which is why sample is applied after), enable=0 stops.
    std::size_t capacity = obs::TraceRecorder::kDefaultCapacity;
    const std::string_view capacity_text = request.query_value("capacity");
    if (!capacity_text.empty()) {
      const auto [ptr, ec] = std::from_chars(
          capacity_text.data(), capacity_text.data() + capacity_text.size(),
          capacity);
      if (ec != std::errc{} || ptr != capacity_text.data() + capacity_text.size() ||
          capacity == 0) {
        respond(400, "text/plain", "bad capacity\n");
        return;
      }
    }
    // Validate everything before touching the recorder: a 400 must not
    // leave a half-applied control (e.g. enabled with a rejected sample).
    double rate = -1.0;
    const std::string_view sample_text = request.query_value("sample");
    if (!sample_text.empty()) {
      char* end = nullptr;
      const std::string sample_copy{sample_text};
      rate = std::strtod(sample_copy.c_str(), &end);
      if (end != sample_copy.c_str() + sample_copy.size() || rate < 0.0 ||
          rate > 1.0) {
        respond(400, "text/plain", "bad sample (want [0,1])\n");
        return;
      }
    }
    if (request.has_query("enable")) {
      const std::string_view enable = request.query_value("enable");
      if (enable == "1" || enable == "true" || enable.empty()) {
        recorder.enable(capacity);
      } else if (enable == "0" || enable == "false") {
        recorder.disable();
      } else {
        respond(400, "text/plain", "bad enable\n");
        return;
      }
    }
    // After enable: enable() resets sampling to record-everything.
    if (rate >= 0.0) recorder.set_sample_rate(rate);
    std::string body = "{\"enabled\":";
    body += recorder.enabled() ? "true" : "false";
    body += ",\"sample\":" + std::to_string(recorder.sample_rate());
    body += ",\"dropped\":" + std::to_string(recorder.dropped());
    body += "}\n";
    respond(200, "application/json", body);
    return;
  }
  respond(404, "text/plain", "not found\n");
}

void NetServer::write_ready(const std::shared_ptr<Connection>& conn) {
  const std::lock_guard lock{conn->out_mutex};
  std::size_t written = 0;
  while (written < conn->outbound.size()) {
    const ssize_t n = ::send(conn->fd, conn->outbound.data() + written,
                             conn->outbound.size() - written, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    conn->overflowed.store(true, std::memory_order_release);  // peer is gone
    break;
  }
  conn->outbound.erase(0, written);
}

void NetServer::update_epoll_interest(const std::shared_ptr<Connection>& conn) {
  std::uint32_t wanted = EPOLLIN;
  {
    const std::lock_guard lock{conn->out_mutex};
    if (!conn->outbound.empty()) wanted |= EPOLLOUT;
  }
  if (wanted == conn->interest) return;
  epoll_event event{};
  event.events = wanted;
  event.data.fd = conn->fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &event) == 0) {
    conn->interest = wanted;
  }
}

void NetServer::close_connection(const std::shared_ptr<Connection>& conn) {
  if (connections_.erase(conn->fd) == 0) return;  // already closed
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  metrics_.closed.add(1);
  metrics_.connections_active.add(-1.0);
  // Device-map entries pointing at this connection expire on their own
  // (weak_ptr); later decisions for its devices count as orphaned.
}

void NetServer::event_loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  auto drain_deadline = std::chrono::steady_clock::time_point::max();
  while (true) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, 100);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_ || fd == admin_listen_fd_) {
        accept_ready(fd, fd == admin_listen_fd_);
        continue;
      }
      if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_, &drained, sizeof drained);
        continue;
      }
      const auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      const std::shared_ptr<Connection> conn = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        // Flush what we can (the peer may have only half-closed), then drop.
        write_ready(conn);
        close_connection(conn);
        continue;
      }
      if (events[i].events & EPOLLIN) read_ready(conn);
      if (connections_.contains(fd) && (events[i].events & EPOLLOUT)) {
        write_ready(conn);
      }
    }

    // Re-arm cross-thread wakes before sweeping: anything appended before
    // this point is visible to the sweep below, anything appended after it
    // writes the eventfd and lands in the next iteration.
    wake_pending_.store(false, std::memory_order_release);

    // Sweep: flush pending outbound (workers append from their threads and
    // wake us), apply slow-reader and close-after-flush verdicts, update
    // epoll interest.
    std::vector<std::shared_ptr<Connection>> to_close;
    for (const auto& [fd, conn] : connections_) {
      if (conn->overflowed.load(std::memory_order_acquire)) {
        to_close.push_back(conn);
        continue;
      }
      write_ready(conn);
      bool flushed;
      {
        const std::lock_guard lock{conn->out_mutex};
        flushed = conn->outbound.empty();
      }
      if (conn->overflowed.load(std::memory_order_acquire) ||
          (flushed && conn->close_after_flush.load(std::memory_order_acquire))) {
        to_close.push_back(conn);
      } else {
        update_epoll_interest(conn);
      }
    }
    for (const auto& conn : to_close) close_connection(conn);

    if (draining_.load(std::memory_order_acquire)) {
      if (drain_deadline == std::chrono::steady_clock::time_point::max()) {
        drain_deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(2);
      }
      bool all_flushed = true;
      for (const auto& [fd, conn] : connections_) {
        write_ready(conn);
        const std::lock_guard lock{conn->out_mutex};
        all_flushed = all_flushed && conn->outbound.empty();
      }
      if (all_flushed || std::chrono::steady_clock::now() >= drain_deadline) {
        std::vector<std::shared_ptr<Connection>> remaining;
        remaining.reserve(connections_.size());
        for (const auto& [fd, conn] : connections_) remaining.push_back(conn);
        for (const auto& conn : remaining) close_connection(conn);
        return;
      }
    }
  }
}

}  // namespace wtp::serve::net
