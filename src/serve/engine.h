// ScoringEngine: online identification over an interleaved multi-device
// transaction stream (the serving deployment of the paper's §IV-C
// continuous-monitoring scenario).
//
// Per-device session state is sharded by device-id hash; each shard has its
// own lock, so streams of distinct devices make progress concurrently.
// The windows one arrival (or a flush or eviction) completes form a burst:
// its window matrix is scored by core::score_windows — every profile over
// every window, fanned out over an optional util::ThreadPool — or, with a
// cascade plane configured, window by window through
// IdentificationPlane::identify.  Either way the burst yields one
// profiles × windows acceptance block, and one emit loop turns it into
// DecisionEvents in window order: K-consecutive smoothing, collector
// reports, metrics, and trace/slow-log attribution.  Idle sessions are
// evicted under a TTL (event time) and an LRU cap, flushing their open
// windows first so no traffic is silently dropped.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <iosfwd>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/profile_store.h"
#include "index/cascade.h"
#include "obs/registry.h"
#include "obs/slow_log.h"
#include "serve/decision_trace.h"
#include "serve/event.h"
#include "serve/metrics.h"
#include "serve/session.h"
#include "svm/kernel.h"
#include "util/histogram.h"
#include "util/shared_string.h"
#include "util/thread_pool.h"

namespace wtp::serve {

/// The shard (or ingest queue) among `count` that owns a device: the hash of
/// its id modulo `count`.  std::hash<std::string_view> equals
/// std::hash<std::string> on the same bytes, so a view picks the shard its
/// std::string would.
[[nodiscard]] inline std::size_t device_shard(std::string_view device_id,
                                              std::size_t count) noexcept {
  return std::hash<std::string_view>{}(device_id) % count;
}

namespace retrain {
class WindowCollector;
}  // namespace retrain

struct EngineConfig {
  std::size_t shards = 8;  ///< session shards, >= 1
  std::size_t smooth = 1;  ///< K consecutive windows to assert an identity
  /// Sessions idle longer than this (event time, vs the timestamps arriving
  /// on their shard) are evicted.  0 = never expire.
  util::UnixSeconds session_ttl_s = 0;
  /// Upper bound on resident sessions, split evenly across shards; the
  /// least-recently-active session of a full shard is evicted.  0 = unbounded.
  std::size_t max_sessions = 0;
  /// Worker threads for the profile fan-out of each burst.  0 = score
  /// serially on the ingesting thread.
  std::size_t score_threads = 0;
  /// Where serve.* metrics are published.  nullptr (default) gives the
  /// engine a private registry, so metrics() stays exact per engine; tools
  /// pass &obs::Registry::global() to fold the engine into their exported
  /// snapshots.  Must outlive the engine.
  obs::Registry* registry = nullptr;
  /// Optional candidate-pruning cascade.  When set, each window routes
  /// through the plane (only cascade survivors reach the SVMs, and
  /// `accepted_by` holds the survivors that accepted) instead of the full
  /// profile fan-out.  The plane's catalog must hold the same users in the
  /// same order as the store (checked at construction) and must outlive the
  /// engine.
  const index::IdentificationPlane* plane = nullptr;
  /// Optional drift/window collector for the online retraining loop: every
  /// scored window with a known true user is reported as
  /// observe(true_user, features, self_accepted).  Called under the
  /// ingesting shard's lock, so observe() must be cheap and must not
  /// re-enter the engine.  Must outlive the engine.
  retrain::WindowCollector* collector = nullptr;
  /// Optional slow-decision log.  Every window scored through the traced
  /// ingest overload is attributed (decode + queue + ingest + score, plus
  /// per-cascade-stage splits when a plane is set) and recorded when its
  /// total crosses the log's threshold.  Must outlive the engine.
  obs::SlowLog* slow_log = nullptr;
  /// Kernel-transform precision tier of this engine's scoring (DESIGN §14):
  /// passed to every decision the engine computes — the window-block
  /// scorer and the cascade plane.  Published as the
  /// kernel.transform_relaxed gauge (1 when relaxed).  Other engines in the
  /// process keep their own tier; training is always exact.
  svm::TransformMode transform = svm::TransformMode::kExact;
};

class ScoringEngine {
 public:
  /// The store must outlive the engine.  Throws std::invalid_argument on a
  /// zero shard count or an empty store.
  ScoringEngine(const core::ProfileStore& store, EngineConfig config,
                EventSink sink);

  /// Routes one transaction to its device's session and emits an event for
  /// every window this arrival completes.  Transactions of one device must
  /// arrive in time order (std::invalid_argument otherwise); interleaving
  /// across devices is unrestricted.  Safe to call concurrently from
  /// several threads as long as each device's stream stays on one thread.
  void ingest(const log::WebTransaction& txn);

  /// ingest() with a per-decision trace context (the serving front end's
  /// path): windows completed by this arrival carry the client trace id on
  /// their DecisionEvents, sampled decisions emit decision.* spans into the
  /// global TraceRecorder, and the configured slow log sees an attributed
  /// stage breakdown.
  void ingest(const log::WebTransaction& txn, const DecisionTrace& trace);

  /// Ends the stream: every session's open windows are scored and emitted
  /// (EventSource::kFlush, devices in lexicographic order) and the session
  /// table is cleared.
  void flush();

  [[nodiscard]] EngineMetrics metrics() const;
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] const core::ProfileStore& store() const noexcept { return *store_; }

  /// Atomically replaces `user_id`'s profile with a freshly trained one
  /// (RCU-style: scoring threads keep using the snapshot they took at the
  /// top of their ingest/flush call; the next call sees the new profile).
  /// Returns false when the store holds no such user.  Throws
  /// std::logic_error when a cascade plane is configured — the plane indexes
  /// the construction-time profiles, so hot swaps would diverge from it.
  bool publish_profile(const std::string& user_id, core::UserProfile profile);

  /// The profile vector scoring currently runs against (the construction
  /// store's until the first publish_profile).
  [[nodiscard]] std::shared_ptr<const std::vector<core::UserProfile>>
  profiles_snapshot() const {
    return profiles_.load(std::memory_order_acquire);
  }

  /// Serializes every resident session — shard by shard, least recently
  /// active first — under a header binding window geometry, schema
  /// dimension, and smoothing K.  save -> restore -> save round-trips to
  /// identical bytes.  Takes each shard lock in turn; do not call
  /// concurrently with ingest of the devices being saved.
  void save_snapshot(std::ostream& out) const;

  /// Replaces the resident session table with the snapshot's (a successor
  /// node resuming a drained predecessor's streams byte-identically).
  /// Throws std::runtime_error on malformed input or when the snapshot's
  /// window/dimension/smooth disagree with this engine's configuration.
  void restore_snapshot(std::istream& in);

 private:
  struct Entry {
    DeviceSession session;
    std::list<std::string>::iterator lru_position;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, Entry, util::TransparentStringHash, std::equal_to<>>
        sessions;
    std::list<std::string> lru;  ///< device ids, front = least recently active
  };

  /// serve.* handles on the configured registry, resolved once at
  /// construction.  Counters are atomics, so shards bump them without
  /// extra locking; timers stripe internally.
  struct Metrics {
    obs::Counter& transactions;
    obs::Counter& windows;
    obs::Counter& decisions;
    obs::Counter& correct;
    obs::Counter& created;
    obs::Counter& evicted;
    obs::Counter& profile_swaps;
    obs::Gauge& sessions_active;
    obs::Timer& ingest_ns;
    obs::Timer& score_ns;

    explicit Metrics(obs::Registry& registry);
  };

  using ProfileVector = std::vector<core::UserProfile>;

  [[nodiscard]] Shard& shard_for(std::string_view device_id);

  void ingest_impl(const log::WebTransaction& txn, const DecisionTrace* trace);

  /// Scores a burst of completed windows and emits their events in window
  /// order.  Caller holds the shard lock and keeps the profile snapshot
  /// alive.
  void score_burst(DeviceSession& session, std::span<const PendingWindow> pending,
                   EventSource source, const ProfileVector& profiles,
                   const DecisionTrace* trace = nullptr);

  /// Sampled decision.* span emission plus slow-log attribution for one
  /// scored window.  `cascade` is null when no plane ran.
  void observe_decision(const DecisionTrace& trace, const DecisionEvent& event,
                        std::int64_t score_ns,
                        const index::IdentificationResult* cascade) const;

  /// Flushes + erases one session.  Caller holds the shard lock.
  void evict(Shard& shard, const std::string& device_id,
             const ProfileVector& profiles);

  void evict_expired(Shard& shard, util::UnixSeconds now,
                     const ProfileVector& profiles);
  void enforce_capacity(Shard& shard, const ProfileVector& profiles);

  const core::ProfileStore* store_;
  EngineConfig config_;
  EventSink sink_;
  std::size_t per_shard_capacity_ = 0;  ///< 0 = unbounded
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<obs::Registry> owned_registry_;  ///< when config.registry==nullptr
  Metrics metrics_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// RCU-published profile vector: scoring loads one snapshot per
  /// ingest/flush call, publish_profile copy-replaces and stores.  Starts
  /// as a non-owning alias of the construction store's vector.
  std::atomic<std::shared_ptr<const ProfileVector>> profiles_;
  std::mutex publish_mutex_;  ///< serializes copy-replace-publish cycles
};

}  // namespace wtp::serve
