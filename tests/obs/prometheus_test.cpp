// Prometheus exposition edge cases: hostile label values must escape per
// the text format, empty timers must still expose well-formed summaries,
// and the dots-to-underscores name mangling must stay inside the legal
// charset (including when distinct registry names collide after mangling).
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "core/profile_store.h"
#include "obs/registry.h"
#include "serve/engine.h"
#include "svm/kernel.h"
#include "util/feature_matrix.h"
#include "util/sparse_vector.h"

namespace wtp::obs {
namespace {

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

/// Every non-empty exposition line must be `name[{labels}] value`, with the
/// name inside [a-zA-Z_:][a-zA-Z0-9_:]* — the structural check a scraper's
/// parser performs.
void expect_well_formed(const std::string& exposition) {
  std::size_t begin = 0;
  while (begin < exposition.size()) {
    std::size_t end = exposition.find('\n', begin);
    ASSERT_NE(end, std::string::npos) << "unterminated final line";
    const std::string line = exposition.substr(begin, end - begin);
    begin = end + 1;
    ASSERT_FALSE(line.empty());
    std::size_t i = 0;
    const auto name_char = [](char c, bool first) {
      const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                         c == '_' || c == ':';
      return first ? alpha : (alpha || (c >= '0' && c <= '9'));
    };
    ASSERT_TRUE(name_char(line[0], true)) << line;
    while (i < line.size() && name_char(line[i], i == 0)) ++i;
    if (i < line.size() && line[i] == '{') {
      // Labels: skip to the matching close brace, honoring escaped quotes
      // inside label values.
      bool in_string = false;
      bool escaped = false;
      for (++i; i < line.size(); ++i) {
        const char c = line[i];
        if (escaped) {
          escaped = false;
        } else if (in_string && c == '\\') {
          escaped = true;
        } else if (c == '"') {
          in_string = !in_string;
        } else if (!in_string && c == '}') {
          break;
        }
      }
      ASSERT_LT(i, line.size()) << "unterminated labels: " << line;
      ++i;
    }
    ASSERT_LT(i, line.size()) << line;
    ASSERT_EQ(line[i], ' ') << line;
    ASSERT_LT(i + 1, line.size()) << "no sample value: " << line;
  }
}

TEST(Prometheus, HostileLabelValuesEscape) {
  Registry registry;
  const Label label{"path", "a\\b\"c\nd"};
  registry.counter("admin.requests", std::span{&label, 1}).add(3);
  const std::string out = to_prometheus(registry.snapshot(false));
  EXPECT_EQ(out,
            "wtp_admin_requests_total{path=\"a\\\\b\\\"c\\nd\"} 3\n");
  expect_well_formed(out);
}

TEST(Prometheus, EmptyTimerStillExposesSummary) {
  Registry registry;
  (void)registry.timer("net.decode");  // registered, never recorded
  const std::string out = to_prometheus(registry.snapshot(false));
  // All three quantiles plus _sum and _count, zero-valued — a scrape
  // between registration and first traffic must stay parseable.
  EXPECT_EQ(count_occurrences(out, "wtp_net_decode_seconds{quantile="), 3u);
  EXPECT_NE(out.find("wtp_net_decode_seconds{quantile=\"0.5\"} 0"),
            std::string::npos);
  EXPECT_NE(out.find("wtp_net_decode_seconds_sum 0"), std::string::npos);
  EXPECT_NE(out.find("wtp_net_decode_seconds_count 0"), std::string::npos);
  expect_well_formed(out);
}

TEST(Prometheus, NameManglingStaysInCharset) {
  Registry registry;
  registry.counter("net.ingest-rate/1m").add(1);
  registry.gauge("serve.sessions resident").set(2.0);
  const std::string out = to_prometheus(registry.snapshot(false));
  EXPECT_NE(out.find("wtp_net_ingest_rate_1m_total 1"), std::string::npos);
  EXPECT_NE(out.find("wtp_serve_sessions_resident 2"), std::string::npos);
  expect_well_formed(out);
}

TEST(Prometheus, DistinctNamesCollidingAfterManglingBothExport) {
  // "net.queue" and "net_queue" are distinct registry series but share the
  // mangled name; both samples must still be emitted (the registry is the
  // source of truth, the exporter never merges or drops).
  Registry registry;
  registry.counter("net.queue").add(1);
  registry.counter("net_queue").add(2);
  const std::string out = to_prometheus(registry.snapshot(false));
  const std::size_t lines = count_occurrences(out, "wtp_net_queue_total ");
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(out.find("wtp_net_queue_total 1"), std::string::npos);
  EXPECT_NE(out.find("wtp_net_queue_total 2"), std::string::npos);
  expect_well_formed(out);
}

TEST(Prometheus, KernelTransformMetricsExpose) {
  // The transform plane's observability (DESIGN §14): installing a registry
  // creates per-kernel dot/transform timers, and a scored kernel row
  // records into them.  The registry must outlive kernel calls, so the seam
  // is uninstalled before it dies.
  Registry registry;
  svm::set_kernel_metrics(&registry);
  const std::vector<util::SparseVector> rows{
      util::SparseVector{{{0, 1.0}, {2, 0.5}}},
      util::SparseVector{{{1, 2.0}}},
  };
  const auto matrix = util::FeatureMatrix::from_rows(
      std::span<const util::SparseVector>{rows}, 4);
  const svm::KernelParams params{svm::KernelType::kRbf, 0.5, 0.0, 3};
  std::vector<double> scores(rows.size());
  svm::kernel_block(params, svm::kernel_matrix(matrix),
                    svm::KernelQueries::row(rows[0], rows[0].squared_norm()),
                    scores);
  svm::set_kernel_metrics(nullptr);
  const std::string out = to_prometheus(registry.snapshot(false));
  // The scored row recorded one dot phase and one transform phase under the
  // rbf label; other kernels' series exist but stay empty (still exposed).
  EXPECT_NE(out.find("wtp_kernel_dot_ns_seconds_count{kernel=\"rbf\"} 1"),
            std::string::npos);
  EXPECT_NE(
      out.find("wtp_kernel_transform_ns_seconds_count{kernel=\"rbf\"} 1"),
      std::string::npos);
  EXPECT_NE(
      out.find("wtp_kernel_transform_ns_seconds_count{kernel=\"sigmoid\"} 0"),
      std::string::npos);
  expect_well_formed(out);

  // The tier gauge belongs to the engine: each publishes its own tier into
  // its own registry.
  std::vector<core::UserProfile> profiles;
  profiles.push_back(core::UserProfile::train(
      "u", matrix, 4, core::ProfileParams{core::ClassifierType::kOcSvm, params}));
  const core::ProfileStore store{features::WindowConfig{60, 30},
                                 features::FeatureSchema{{}, {}, {}, {}},
                                 std::move(profiles)};
  for (const auto& [tier, expected] :
       {std::pair{svm::TransformMode::kExact, "wtp_kernel_transform_relaxed 0"},
        std::pair{svm::TransformMode::kRelaxed,
                  "wtp_kernel_transform_relaxed 1"}}) {
    Registry engine_registry;
    serve::EngineConfig config;
    config.registry = &engine_registry;
    config.transform = tier;
    const serve::ScoringEngine engine{store, config,
                                      [](const serve::DecisionEvent&) {}};
    const std::string text = to_prometheus(engine_registry.snapshot(false));
    EXPECT_NE(text.find(expected), std::string::npos) << text;
    expect_well_formed(text);
  }
}

TEST(Prometheus, LabelKeysAreMangledToo) {
  Registry registry;
  const Label label{"shard.id", "3"};
  registry.counter("serve.windows", std::span{&label, 1}).add(9);
  const std::string out = to_prometheus(registry.snapshot(false));
  EXPECT_NE(out.find("wtp_serve_windows_total{shard_id=\"3\"} 9"),
            std::string::npos);
  expect_well_formed(out);
}

}  // namespace
}  // namespace wtp::obs
