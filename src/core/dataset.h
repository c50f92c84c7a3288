// ProfilingDataset: the paper's data preparation pipeline (§IV).
//
// From a raw transaction log it: groups transactions per user, filters out
// users with too few transactions (paper: < 1,500; 25 of 36 kept), builds
// the bag-of-words feature schema over the full dataset (843 columns at
// paper scale), splits each user's transactions chronologically 75/25 into
// train/test, and materializes transaction windows for any window
// configuration on demand.
//
// The log is held once (DESIGN §7, "One transaction log"): the dataset
// groups the kept users' rows inside the vector it is handed, erases the
// dropped users' rows, and returns the pages of the unused capacity to the
// operating system.  Each user's rows are a span into that one vector.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "features/schema.h"
#include "features/split.h"
#include "features/window.h"
#include "log/transaction.h"
#include "util/feature_matrix.h"
#include "util/sparse_vector.h"

namespace wtp::core {

struct DatasetConfig {
  double train_fraction = 0.75;        ///< oldest fraction used for training
  std::size_t min_transactions = 1500; ///< user filter threshold (paper §IV-A)
  std::size_t max_users = 25;          ///< keep the N most active eligible users
  /// Upper bound on windows used to train one model; larger sets are
  /// uniformly subsampled (deterministic stride) to keep SMO tractable.
  std::size_t max_training_windows = 1200;
};

class ProfilingDataset {
 public:
  /// Takes ownership of the (time-sorted) transaction log and groups it in
  /// place: the kept users' rows end up contiguous, user after user in
  /// user_ids() order and each user's rows in log order, and every other
  /// row is erased.  Each row is moved once, never copied, and the pages of
  /// the vector's spare capacity are returned to the operating system.
  /// Pass the log with std::move to hold it once.
  /// The dataset keeps no per-device view: for host-specific windowing,
  /// group the trace with features::group_by_device before handing it over.
  ProfilingDataset(std::vector<log::WebTransaction> transactions,
                   DatasetConfig config = {});

  [[nodiscard]] const features::FeatureSchema& schema() const noexcept {
    return schema_;
  }
  /// Users that survived the filter, sorted lexicographically.
  [[nodiscard]] const std::vector<std::string>& user_ids() const noexcept {
    return user_ids_;
  }
  [[nodiscard]] std::size_t user_count() const noexcept { return user_ids_.size(); }

  [[nodiscard]] std::span<const log::WebTransaction> train_transactions(
      const std::string& user) const;
  [[nodiscard]] std::span<const log::WebTransaction> test_transactions(
      const std::string& user) const;
  /// All of a user's transactions (train + test, time-sorted).
  [[nodiscard]] std::span<const log::WebTransaction> all_transactions(
      const std::string& user) const;

  /// Training windows for a user under a window configuration, as a CSR
  /// FeatureMatrix (cols = schema dimension), subsampled to
  /// config.max_training_windows: features::WindowAggregator::aggregate's
  /// windows, through ProfilingDataset::subsample, bit for bit.  Each
  /// (window config, user) pair is windowed exactly once and cached, so a
  /// grid search sweeping kernels and nu over the same window configuration
  /// reuses one matrix.  The rows are written straight into CSR, and only
  /// the windows that subsampling keeps are merged.  Thread-safe.
  [[nodiscard]] std::shared_ptr<const util::FeatureMatrix> train_matrix(
      const std::string& user, const features::WindowConfig& window) const;

  /// Test windows as a cached CSR FeatureMatrix (never subsampled).
  [[nodiscard]] std::shared_ptr<const util::FeatureMatrix> test_matrix(
      const std::string& user, const features::WindowConfig& window) const;

  [[nodiscard]] const DatasetConfig& config() const noexcept { return config_; }

  /// Deterministic uniform subsampling (stride-based, keeps order): at most
  /// `max_count` rows (0 = all), the ones train_matrix keeps out of all of
  /// a user's windows.
  [[nodiscard]] static util::FeatureMatrix subsample(const util::FeatureMatrix& rows,
                                                     std::size_t max_count);
  /// The same choice over vectors.  Kept only for bench/ledger's cascade10k
  /// set-up (ledger.cpp), which windows the trace users under the decoys'
  /// schema through features::window_vectors.
  [[nodiscard]] static std::vector<util::SparseVector> subsample(
      std::vector<util::SparseVector> vectors, std::size_t max_count);

 private:
  struct UserData {
    std::span<const log::WebTransaction> rows;  // time-sorted, into rows_
    std::size_t train_count = 0;                // prefix length
  };

  /// Cache key: (duration, shift, train/test, user).
  using MatrixKey = std::tuple<util::UnixSeconds, util::UnixSeconds, bool, std::string>;

  /// Heap-allocated so the dataset stays movable despite the mutex.
  struct MatrixCache {
    std::mutex mutex;
    std::map<MatrixKey, std::shared_ptr<const util::FeatureMatrix>> entries;
  };

  [[nodiscard]] const UserData& user_data(const std::string& user) const;
  [[nodiscard]] std::shared_ptr<const util::FeatureMatrix> cached_matrix(
      const std::string& user, const features::WindowConfig& window,
      bool train) const;

  DatasetConfig config_;
  features::FeatureSchema schema_{{}, {}, {}, {}};
  /// The kept users' rows, grouped by user.  Moving the dataset moves the
  /// vector's buffer, so the spans in users_ stay valid.
  std::vector<log::WebTransaction> rows_;
  std::vector<std::string> user_ids_;
  std::vector<UserData> users_;  ///< parallel to user_ids_
  mutable std::unique_ptr<MatrixCache> matrix_cache_ = std::make_unique<MatrixCache>();
};

}  // namespace wtp::core
