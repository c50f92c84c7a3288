// Fault injection against the TCP front end: malformed, oversized, and
// truncated input, abrupt disconnects, slow readers, queue backpressure, and
// connect/disconnect churn.  The invariant under every fault is the same —
// only the offending connection dies; the engine and every other session
// keep scoring correctly.  The suite runs under the sanitized CI leg too.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "features/split.h"
#include "serve/net/client.h"
#include "serve/net/server.h"
#include "serve/serve_test_util.h"

namespace wtp::serve::net {
namespace {

using testing::device_of_line;
using testing::line_has_type;
using testing::offline_decision_lines;
using testing::tiny_store;

EngineConfig engine_config() {
  EngineConfig config;
  config.shards = 4;
  config.smooth = 3;
  config.score_threads = 0;
  return config;
}

/// Queues deep enough that a full-speed healthy replay never hits
/// backpressure — this suite injects its faults elsewhere (the dedicated
/// backpressure test shrinks the queue on purpose).
NetServerConfig deep_queue_config() {
  NetServerConfig net;
  net.queue_capacity = 1 << 18;
  return net;
}

/// Polls `predicate` until true or the deadline trips (faults are observed
/// asynchronously on the event-loop thread).
::testing::AssertionResult eventually(const std::function<bool()>& predicate,
                                      std::chrono::seconds budget =
                                          std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!predicate()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return ::testing::AssertionFailure() << "condition not reached in time";
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return ::testing::AssertionSuccess();
}

/// Binary stream of the first device (the healthy replay target) or the
/// last one (the saboteurs' device — so partial ingest of it never perturbs
/// the healthy device's session).
std::string device_stream_binary(bool last) {
  std::string stream;
  const auto by_device =
      features::group_by_device(core::testing::tiny_trace().transactions);
  const auto& txns = last ? by_device.rbegin()->second
                          : by_device.begin()->second;
  for (const auto& txn : txns) append_txn_frame(stream, txn);
  return stream;
}

/// A healthy replay of one device's stream must still match the offline
/// oracle on a server that already absorbed a fault.
void expect_clean_replay_still_works(NetServer& server) {
  const auto by_device =
      features::group_by_device(core::testing::tiny_trace().transactions);
  const auto& [device, txns] = *by_device.begin();

  BlockingClient client{server.port()};
  for (const auto& txn : txns) client.send_txn_binary(txn);
  client.send_end_binary();

  std::vector<std::string> decisions;
  for (const auto& line : client.read_all_lines()) {
    if (line_has_type(line, "metrics")) continue;
    ASSERT_TRUE(line_has_type(line, "decision")) << line;
    ASSERT_EQ(device_of_line(line), device);
    decisions.push_back(line);
  }
  const auto want = offline_decision_lines(tiny_store(), engine_config(), txns);
  ASSERT_TRUE(want.contains(device));
  EXPECT_EQ(decisions, want.at(device));
}

TEST(Fault, MalformedBinaryClosesOnlyThatConnection) {
  NetServer server{tiny_store(), engine_config(), deep_queue_config()};
  server.start();

  BlockingClient bad{server.port()};
  std::string frame;
  frame.push_back(static_cast<char>(kFrameMarker));
  frame.push_back(42);  // unknown frame type
  frame.append(4, '\0');
  bad.send(frame);
  const auto replies = bad.read_all_lines();  // error reply, then server close
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(line_has_type(replies[0], "error")) << replies[0];
  EXPECT_EQ(server.registry().counter("net.malformed_input").value(), 1u);

  expect_clean_replay_still_works(server);
  EXPECT_EQ(server.registry().counter("net.malformed_input").value(), 1u);
  server.stop();
}

TEST(Fault, MalformedJsonClosesOnlyThatConnection) {
  NetServer server{tiny_store(), engine_config(), deep_queue_config()};
  server.start();

  BlockingClient bad{server.port()};
  bad.send("this is not json\n");
  const auto replies = bad.read_all_lines();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(line_has_type(replies[0], "error")) << replies[0];
  EXPECT_EQ(server.registry().counter("net.malformed_input").value(), 1u);

  expect_clean_replay_still_works(server);
  server.stop();
}

TEST(Fault, OversizedInputRejected) {
  NetServerConfig net = deep_queue_config();
  net.max_message_bytes = 256;
  NetServer server{tiny_store(), engine_config(), net};
  server.start();

  {
    BlockingClient bad{server.port()};  // binary frame declaring a huge payload
    std::string header;
    header.push_back(static_cast<char>(kFrameMarker));
    header.push_back(1);
    const std::uint32_t huge = 1 << 20;
    for (int shift = 0; shift < 32; shift += 8) {
      header.push_back(static_cast<char>((huge >> shift) & 0xFF));
    }
    bad.send(header);
    const auto replies = bad.read_all_lines();
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_TRUE(line_has_type(replies[0], "error")) << replies[0];
  }
  {
    BlockingClient bad{server.port()};  // JSON line with no newline in sight
    bad.send(std::string(1024, 'x'));
    const auto replies = bad.read_all_lines();
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_TRUE(line_has_type(replies[0], "error")) << replies[0];
  }
  EXPECT_EQ(server.registry().counter("net.malformed_input").value(), 2u);

  expect_clean_replay_still_works(server);
  server.stop();
}

TEST(Fault, TruncatedFrameCountsAndDoesNotWedge) {
  NetServer server{tiny_store(), engine_config(), deep_queue_config()};
  server.start();

  {
    // A run of complete frames, then a frame cut off mid-payload.
    const auto by_device =
        features::group_by_device(core::testing::tiny_trace().transactions);
    const auto& txns = by_device.rbegin()->second;
    ASSERT_GT(txns.size(), 8u);
    std::string stream;
    for (std::size_t i = 0; i < 8; ++i) append_txn_frame(stream, txns[i]);
    std::string partial;
    append_txn_frame(partial, txns[8]);
    stream += partial.substr(0, kFrameHeaderBytes + 2);

    BlockingClient bad{server.port()};
    bad.send(stream);
    bad.close();
  }
  EXPECT_TRUE(eventually([&server] {
    return server.registry().counter("net.truncated_disconnects").value() >= 1;
  }));

  expect_clean_replay_still_works(server);
  server.stop();
}

TEST(Fault, MidFrameDisconnectDoesNotCorruptOtherSession) {
  NetServer server{tiny_store(), engine_config(), deep_queue_config()};
  server.start();

  // The saboteur carries the *same* device as the healthy client but dies
  // before completing a single frame — no transaction must reach the engine.
  const std::string stream = device_stream_binary(/*last=*/false);
  {
    BlockingClient bad{server.port()};
    bad.send(stream.substr(0, kFrameHeaderBytes + 2));
    bad.close();
  }
  EXPECT_TRUE(eventually([&server] {
    return server.registry().counter("net.truncated_disconnects").value() >= 1;
  }));
  EXPECT_EQ(server.registry().counter("net.transactions_received").value(), 0u);

  expect_clean_replay_still_works(server);
  server.stop();
}

TEST(Fault, SlowReaderIsDisconnectedServerSurvives) {
  NetServerConfig net = deep_queue_config();
  net.max_outbound_bytes = 64;  // a single decision line overflows this
  NetServer server{tiny_store(), engine_config(), net};
  server.start();

  BlockingClient slow{server.port()};
  try {
    // Plenty of decisions, never reads; the server may close the socket
    // while we are still writing — a broken pipe here is the expected fault.
    slow.send(device_stream_binary(/*last=*/true));
  } catch (const std::system_error&) {
  }
  EXPECT_TRUE(eventually([&server] {
    return server.registry().counter("net.slow_reader_disconnects").value() >=
           1;
  }));
  EXPECT_TRUE(eventually([&slow] {  // server closes the socket on overflow
    try {
      return !slow.read_line().has_value();
    } catch (const std::system_error&) {
      return true;  // reset counts as closed too
    }
  }));

  // With a 64-byte outbound cap no connection can receive a decision line,
  // so server health is asserted engine-side: a fresh client's stream must
  // still be fully ingested and scored after the slow reader was killed.
  const auto by_device =
      features::group_by_device(core::testing::tiny_trace().transactions);
  const auto& txns = by_device.begin()->second;
  const std::uint64_t ingested_before =
      server.engine().metrics().transactions_ingested;
  const std::uint64_t scored_before = server.engine().metrics().windows_scored;
  {
    BlockingClient healthy{server.port()};
    try {
      for (const auto& txn : txns) healthy.send_txn_binary(txn);
    } catch (const std::system_error&) {
      // The healthy client never reads either, so the server may cut it off
      // mid-send once its own replies overflow; ingest of what landed still
      // proves the engine is alive.
    }
  }
  EXPECT_TRUE(eventually([&server, ingested_before] {
    return server.engine().metrics().transactions_ingested > ingested_before;
  }));
  EXPECT_TRUE(eventually([&server, scored_before] {
    return server.engine().metrics().windows_scored > scored_before;
  }));
  server.stop();
}

TEST(Fault, BackpressureDropsAreCountedAndReplied) {
  const auto& txns = core::testing::tiny_trace().transactions;
  std::string stream;
  for (const auto& txn : txns) append_txn_frame(stream, txn);

  NetServerConfig net;
  net.ingest_workers = 1;
  net.queue_capacity = 1;  // nearly every burst transaction overflows
  // Nearly every transaction draws a ~56 B backpressure line, and the event
  // loop keeps reading a peer that keeps sending before it flushes replies:
  // ~130k lines outgrow the default 8 MiB slow-reader cap, which would drop
  // this connection before a single reply is read.  Size the cap to the
  // whole reply stream; the slow-reader path has its own test.
  net.max_outbound_bytes =
      std::max(net.max_outbound_bytes, txns.size() * std::size_t{256});
  NetServer server{tiny_store(), engine_config(), net};
  server.start();

  BlockingClient client{server.port()};
  client.send(stream);
  client.send_end_binary();

  std::size_t backpressure_lines = 0;
  for (const auto& line : client.read_all_lines()) {
    if (line_has_type(line, "backpressure")) ++backpressure_lines;
  }
  auto& registry = server.registry();
  const std::uint64_t received =
      registry.counter("net.transactions_received").value();
  const std::uint64_t dropped =
      registry.counter("net.ingest_dropped").value();
  EXPECT_EQ(registry.counter("net.slow_reader_disconnects").value(), 0u);
  EXPECT_EQ(received, txns.size());
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(backpressure_lines, dropped);
  // Nothing vanished silently: every received transaction was either
  // ingested or accounted for as a drop.
  EXPECT_EQ(server.engine().metrics().transactions_ingested + dropped,
            received);
  server.stop();
}

TEST(Fault, ConnectDisconnectChurnLeavesServerHealthy) {
  NetServer server{tiny_store(), engine_config(), deep_queue_config()};
  server.start();

  // Churners replay prefixes of the *last* device's stream so their partial
  // ingests (and the resulting out-of-order rejections on re-replay) never
  // touch the healthy device checked at the end.
  const std::string stream = device_stream_binary(/*last=*/true);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kIterations = 25;
  std::vector<std::thread> churners;
  for (std::size_t t = 0; t < kThreads; ++t) {
    churners.emplace_back([&server, &stream, t] {
      for (std::size_t i = 0; i < kIterations; ++i) {
        BlockingClient client{server.port()};
        // Vary the cut point so closes land before, inside, and after
        // frames; capped so churn exercises connection lifecycle, not
        // queue volume.
        const std::size_t cut =
            ((t * kIterations + i) * 37) % std::min<std::size_t>(
                                               stream.size(), 8192);
        try {
          if (cut > 0) client.send(stream.substr(0, cut));
        } catch (const std::system_error&) {
          // The server may reset a connection it already judged broken
          // while we are still writing; churn keeps going.
        }
        client.close();
      }
    });
  }
  for (auto& thread : churners) thread.join();

  auto& registry = server.registry();
  // The kernel may silently drop queued connections whose peer reset
  // before accept(), so accepted can trail the connect count — but every
  // accepted connection must eventually be closed and accounted for.  The
  // event loop may not have reached the listen socket yet when the
  // churners finish on a loaded host, so accepts are awaited too.
  EXPECT_TRUE(eventually([&registry] {
    return registry.counter("net.connections_accepted").value() > 0;
  }));
  EXPECT_TRUE(eventually([&registry] {
    return registry.counter("net.connections_closed").value() >=
           registry.counter("net.connections_accepted").value();
  }));
  EXPECT_TRUE(eventually([&registry] {
    return registry.gauge("net.connections_active").value() == 0.0;
  }));

  expect_clean_replay_still_works(server);
  server.stop();
}

}  // namespace
}  // namespace wtp::serve::net
