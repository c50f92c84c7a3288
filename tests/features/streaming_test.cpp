#include "features/streaming.h"

#include <gtest/gtest.h>

#include <sstream>

#include "features/window_reference.h"
#include "util/rng.h"

namespace wtp::features {
namespace {

FeatureSchema test_schema() {
  return FeatureSchema{{"Games", "News"},
                       {"text", "video"},
                       {"html", "mp4"},
                       {"YouTube", "Slack"}};
}

log::WebTransaction txn_at(util::UnixSeconds ts, const char* category = "Games") {
  log::WebTransaction txn;
  txn.timestamp = ts;
  txn.category = category;
  txn.media_type = "text/html";
  txn.application_type = "YouTube";
  return txn;
}

/// Pushes all transactions and returns everything emitted (incl. flush).
std::vector<Window> stream_all(StreamingWindowAggregator& aggregator,
                               std::span<const log::WebTransaction> txns) {
  std::vector<Window> all;
  for (const auto& txn : txns) {
    for (auto& window : aggregator.push(txn)) all.push_back(std::move(window));
  }
  for (auto& window : aggregator.flush()) all.push_back(std::move(window));
  return all;
}

TEST(StreamingAggregator, MatchesReferenceOnSimpleStream) {
  const FeatureSchema schema = test_schema();
  const WindowConfig config{60, 30};
  std::vector<log::WebTransaction> txns;
  for (int i = 0; i < 50; ++i) txns.push_back(txn_at(i * 13));
  const auto reference = testing::reference_aggregate(schema, config, txns);
  StreamingWindowAggregator streaming{schema, config};
  const auto streamed = stream_all(streaming, txns);
  ASSERT_EQ(streamed.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(streamed[i].start, reference[i].start);
    EXPECT_EQ(streamed[i].end, reference[i].end);
    EXPECT_EQ(streamed[i].transaction_count, reference[i].transaction_count);
    EXPECT_EQ(streamed[i].features, reference[i].features);
  }
}

TEST(StreamingAggregator, MatchesReferenceOnRandomGappyStreams) {
  const FeatureSchema schema = test_schema();
  util::Rng rng{2024};
  for (int trial = 0; trial < 20; ++trial) {
    const WindowConfig config{30 + static_cast<long>(rng.uniform_index(90)),
                              5 + static_cast<long>(rng.uniform_index(25))};
    std::vector<log::WebTransaction> txns;
    util::UnixSeconds now = 1000;
    const std::size_t count = 20 + rng.uniform_index(120);
    for (std::size_t i = 0; i < count; ++i) {
      // Mix short gaps with occasional hour-long holes.
      now += rng.bernoulli(0.05) ? 3600 + static_cast<long>(rng.uniform_index(3600))
                                 : static_cast<long>(rng.uniform_index(20));
      txns.push_back(txn_at(now, rng.bernoulli(0.5) ? "Games" : "News"));
    }
    const auto reference = testing::reference_aggregate(schema, config, txns);
    StreamingWindowAggregator streaming{schema, config};
    const auto streamed = stream_all(streaming, txns);
    ASSERT_EQ(streamed.size(), reference.size()) << "trial " << trial;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(streamed[i].start, reference[i].start) << "trial " << trial;
      ASSERT_EQ(streamed[i].transaction_count, reference[i].transaction_count)
          << "trial " << trial;
      ASSERT_EQ(streamed[i].features, reference[i].features) << "trial " << trial;
    }
  }
}

TEST(StreamingAggregator, EmitsWindowOnlyOnceComplete) {
  const FeatureSchema schema = test_schema();
  StreamingWindowAggregator aggregator{schema, {60, 30}};
  // First txn opens window [t0, t0+60); nothing can be final yet.
  EXPECT_TRUE(aggregator.push(txn_at(100)).empty());
  EXPECT_TRUE(aggregator.push(txn_at(130)).empty());
  // A txn at t0+60 closes the first window exactly.
  const auto emitted = aggregator.push(txn_at(160));
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].start, 100);
  EXPECT_EQ(emitted[0].transaction_count, 2u);
}

TEST(StreamingAggregator, FlushEmitsOpenWindows) {
  const FeatureSchema schema = test_schema();
  StreamingWindowAggregator aggregator{schema, {60, 30}};
  EXPECT_TRUE(aggregator.push(txn_at(0)).empty());
  const auto flushed = aggregator.flush();
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].transaction_count, 1u);
  EXPECT_EQ(aggregator.buffered(), 0u);
}

TEST(StreamingAggregator, RejectsOutOfOrderTransactions) {
  const FeatureSchema schema = test_schema();
  StreamingWindowAggregator aggregator{schema, {60, 30}};
  (void)aggregator.push(txn_at(100));
  EXPECT_THROW((void)aggregator.push(txn_at(99)), std::invalid_argument);
}

TEST(StreamingAggregator, ResetStartsAFreshStream) {
  const FeatureSchema schema = test_schema();
  StreamingWindowAggregator aggregator{schema, {60, 30}};
  (void)aggregator.push(txn_at(100));
  aggregator.reset();
  EXPECT_EQ(aggregator.buffered(), 0u);
  // After reset, an "earlier" timestamp is fine: new origin.
  const auto emitted = aggregator.push(txn_at(5));
  EXPECT_TRUE(emitted.empty());
  const auto flushed = aggregator.flush();
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].start, 5);
}

TEST(StreamingAggregator, ResetThenReuseMatchesBatchOnBothStreams) {
  // The serving engine recycles aggregators across session restarts: after
  // reset(), a second, unrelated stream must aggregate exactly as a fresh
  // batch run — no origin, buffer, or window-index state may leak.
  const FeatureSchema schema = test_schema();
  const WindowConfig config{60, 30};
  std::vector<log::WebTransaction> first;
  for (int i = 0; i < 40; ++i) first.push_back(txn_at(5000 + i * 17, "Games"));
  std::vector<log::WebTransaction> second;
  for (int i = 0; i < 25; ++i) second.push_back(txn_at(300 + i * 41, "News"));

  StreamingWindowAggregator aggregator{schema, config};
  const auto streamed_first = stream_all(aggregator, first);
  aggregator.reset();
  const auto streamed_second = stream_all(aggregator, second);

  const WindowAggregator batch{schema, config};
  const auto batch_first = batch.aggregate(first);
  const auto batch_second = batch.aggregate(second);
  ASSERT_EQ(streamed_first.size(), batch_first.size());
  ASSERT_EQ(streamed_second.size(), batch_second.size());
  for (std::size_t i = 0; i < batch_second.size(); ++i) {
    EXPECT_EQ(streamed_second[i].start, batch_second[i].start);
    EXPECT_EQ(streamed_second[i].end, batch_second[i].end);
    EXPECT_EQ(streamed_second[i].transaction_count,
              batch_second[i].transaction_count);
    EXPECT_EQ(streamed_second[i].features, batch_second[i].features);
  }
}

TEST(StreamingAggregator, BufferStaysBoundedOnLongStreams) {
  const FeatureSchema schema = test_schema();
  StreamingWindowAggregator aggregator{schema, {60, 30}};
  std::size_t max_buffered = 0;
  for (int i = 0; i < 5000; ++i) {
    (void)aggregator.push(txn_at(i));  // one txn per second
    max_buffered = std::max(max_buffered, aggregator.buffered());
  }
  // At 1 txn/s and D=60s, at most ~2 windows' worth of txns stay buffered.
  EXPECT_LE(max_buffered, 150u);
}

TEST(StreamingAggregator, BurstsThatDrainMatchTheReference) {
  // Bursts of hundreds of transactions in one second, each followed by a
  // trickle: the buffer grows for a burst and gives the capacity back as
  // the trickle drains it, moving the live transactions each time.
  const FeatureSchema schema = test_schema();
  const WindowConfig config{60, 30};
  std::vector<log::WebTransaction> txns;
  util::UnixSeconds now = 5000;
  for (int burst = 0; burst < 4; ++burst) {
    for (int i = 0; i < 300 + 100 * burst; ++i) {
      txns.push_back(txn_at(now, i % 7 == 0 ? "News" : "Games"));
    }
    for (int i = 0; i < 24; ++i) {
      now += 10;
      txns.push_back(txn_at(now, i % 2 == 0 ? "News" : "Games"));
    }
  }
  const auto reference = testing::reference_aggregate(schema, config, txns);
  StreamingWindowAggregator streaming{schema, config};
  std::vector<Window> streamed;
  for (const auto& txn : txns) {
    for (auto& window : streaming.push(txn)) streamed.push_back(std::move(window));
  }
  // Only the trickle's open windows stay buffered: at most 90 seconds.
  EXPECT_LE(streaming.buffered(), 9u);
  for (auto& window : streaming.flush()) streamed.push_back(std::move(window));
  ASSERT_EQ(streamed.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(streamed[i].start, reference[i].start);
    EXPECT_EQ(streamed[i].transaction_count, reference[i].transaction_count);
    EXPECT_TRUE(testing::bitwise_equal(streamed[i].features, reference[i].features))
        << "window " << i;
  }
}

TEST(StreamingAggregator, SaveRestoreRoundTripsMidStream) {
  // Snapshot an aggregator with open windows, restore into a fresh one, and
  // both must emit identical windows for the rest of the stream — the
  // primitive the serving engine's session handoff is built on.
  const FeatureSchema schema = test_schema();
  const WindowConfig config{60, 30};
  std::vector<log::WebTransaction> txns;
  for (int i = 0; i < 60; ++i) {
    txns.push_back(txn_at(1000 + i * 23, i % 3 == 0 ? "News" : "Games"));
  }
  const std::size_t cut = 25;  // mid-window by construction

  StreamingWindowAggregator original{schema, config};
  for (std::size_t i = 0; i < cut; ++i) (void)original.push(txns[i]);

  std::ostringstream out;
  original.save_state(out);
  StreamingWindowAggregator restored{schema, config};
  std::istringstream in{out.str()};
  restored.restore_state(in);
  EXPECT_EQ(restored.buffered(), original.buffered());

  // Save of the restored copy is byte-identical (state is exact).
  std::ostringstream again;
  restored.save_state(again);
  EXPECT_EQ(again.str(), out.str());

  const std::span rest{txns.data() + cut, txns.size() - cut};
  const auto from_original = stream_all(original, rest);
  const auto from_restored = stream_all(restored, rest);
  ASSERT_EQ(from_restored.size(), from_original.size());
  for (std::size_t i = 0; i < from_original.size(); ++i) {
    EXPECT_EQ(from_restored[i].start, from_original[i].start);
    EXPECT_EQ(from_restored[i].end, from_original[i].end);
    EXPECT_EQ(from_restored[i].transaction_count,
              from_original[i].transaction_count);
    EXPECT_EQ(from_restored[i].features, from_original[i].features);
  }
}

TEST(StreamingAggregator, RestoreRejectsMalformedState) {
  const FeatureSchema schema = test_schema();
  StreamingWindowAggregator aggregator{schema, {60, 30}};
  std::istringstream bad{"not an aggregator snapshot"};
  EXPECT_THROW(aggregator.restore_state(bad), std::runtime_error);
  // A failed restore must not corrupt the aggregator.
  (void)aggregator.push(txn_at(10));
  EXPECT_GE(aggregator.buffered(), 1u);
}

/// Restores `state` into an aggregator holding one buffered transaction and
/// returns the refusal's message; the aggregator must be left as it was.
std::string restore_refusal(const std::string& state) {
  const FeatureSchema schema = test_schema();
  StreamingWindowAggregator aggregator{schema, {60, 30}};
  (void)aggregator.push(txn_at(10));
  std::ostringstream before;
  aggregator.save_state(before);
  std::istringstream in{state};
  std::string message;
  try {
    aggregator.restore_state(in);
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  std::ostringstream after;
  aggregator.save_state(after);
  EXPECT_EQ(after.str(), before.str());
  return message;
}

TEST(StreamingAggregator, RestoreRefusesColumnPastTheSchemaDimension) {
  const std::size_t dimension = test_schema().dimension();
  const std::string message = restore_refusal(
      "aggregator 1 100 130 0 2\n100 2 0:1 4:1\n130 2 0:1 " +
      std::to_string(dimension) + ":1\n");
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  EXPECT_NE(message.find("dimension"), std::string::npos) << message;
}

TEST(StreamingAggregator, RestoreRefusesEntriesNotStrictlyAscending) {
  for (const char* entry : {"130 2 9:1 4:1\n", "130 2 4:1 4:1\n"}) {
    const std::string message = restore_refusal(
        std::string{"aggregator 1 100 130 0 2\n100 2 0:1 4:1\n"} + entry);
    EXPECT_NE(message.find("line 3"), std::string::npos) << message;
    EXPECT_NE(message.find("ascending"), std::string::npos) << message;
  }
}

TEST(StreamingAggregator, RestoreRefusesMoreEntriesThanTheEncoderEmits) {
  std::string entry = "100 10";
  for (int column = 0; column < 10; ++column) {
    entry += " " + std::to_string(column) + ":1";
  }
  const std::string message =
      restore_refusal("aggregator 1 100 100 0 1\n" + entry + "\n");
  EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  EXPECT_NE(message.find("10 entries"), std::string::npos) << message;
}

TEST(StreamingAggregator, RejectsInvalidConfig) {
  const FeatureSchema schema = test_schema();
  EXPECT_THROW((StreamingWindowAggregator{schema, {60, 0}}), std::invalid_argument);
  EXPECT_THROW((StreamingWindowAggregator{schema, {30, 60}}), std::invalid_argument);
}

}  // namespace
}  // namespace wtp::features
