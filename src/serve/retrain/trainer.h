// Online drift-driven retraining loop.
//
// A background thread polls the WindowCollector for users whose drift
// monitor has fired, re-runs the warm-started fit_path solver on that
// user's buffered windows (the same code path the offline training plane
// uses, so the determinism tests can compare the swapped profile against an
// offline fit on the identical corpus), and hot-swaps the result into the
// ScoringEngine via its RCU publish — scoring never blocks on a retrain.
//
// Guard rails: a kill-switch (set_enabled) that freezes the loop without
// tearing it down, a per-user minimum retrain interval, and a global
// per-cycle retrain cap, so a noisy drift signal cannot melt the node.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "core/profiler.h"
#include "obs/registry.h"
#include "serve/engine.h"
#include "serve/retrain/collector.h"
#include "util/feature_matrix.h"

namespace wtp::serve::retrain {

struct TrainerConfig {
  /// Seconds between drift polls on the background thread.
  double poll_interval_s = 1.0;
  /// Minimum seconds between two retrains of the same user (wall clock).
  double min_retrain_interval_s = 60.0;
  /// Maximum retrains completed per poll cycle (global rate guard).
  std::size_t max_retrains_per_cycle = 2;
  /// Initial kill-switch position; flip at runtime via set_enabled().
  bool enabled = true;
};

/// Engine and collector must outlive the loop.  The destructor stops the
/// background thread.
class RetrainLoop {
 public:
  RetrainLoop(ScoringEngine& engine, WindowCollector& collector,
              TrainerConfig config, obs::Registry* registry = nullptr);
  ~RetrainLoop();

  RetrainLoop(const RetrainLoop&) = delete;
  RetrainLoop& operator=(const RetrainLoop&) = delete;

  /// Spawns the background poll thread (idempotent).
  void start();
  /// Joins the background thread (idempotent; the destructor calls it).
  void stop();

  /// Kill-switch: false freezes retraining (run_once becomes a no-op, the
  /// thread keeps polling) without losing collector state.
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// One poll cycle, run synchronously on the caller: retrains every
  /// currently-drifted user subject to the guards, returns the number of
  /// profiles swapped.  Public so tests (and single-threaded drivers) can
  /// step the loop deterministically.
  std::size_t run_once();

  /// The retraining primitive: fits a fresh model with `current`'s
  /// hyper-parameters on the window matrix `windows` via the fit_path
  /// plane.  Pure — tests use it as the offline oracle the hot-swapped
  /// profile must equal.  Throws std::invalid_argument on an empty matrix.
  [[nodiscard]] static core::UserProfile refit(const core::UserProfile& current,
                                               const util::FeatureMatrix& windows,
                                               std::size_t dimension);

 private:
  void thread_main();

  ScoringEngine* engine_;
  WindowCollector* collector_;
  TrainerConfig config_;
  std::atomic<bool> enabled_{true};

  obs::Counter* completed_ = nullptr;
  obs::Counter* suppressed_ = nullptr;
  obs::Counter* failed_ = nullptr;
  obs::Timer* fit_ns_ = nullptr;
  obs::Timer* swap_ns_ = nullptr;  ///< full refit + RCU publish wall clock

  std::unordered_map<std::string, std::chrono::steady_clock::time_point>
      last_retrain_;

  std::mutex thread_mutex_;
  std::condition_variable wake_cv_;
  bool stopping_ = false;
  bool running_ = false;
  std::thread thread_;
};

}  // namespace wtp::serve::retrain
