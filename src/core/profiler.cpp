#include "core/profiler.h"

#include <algorithm>
#include <latch>
#include <stdexcept>

#include "util/strings.h"

namespace wtp::core {

UserProfile UserProfile::train(std::string user_id,
                               const util::FeatureMatrix& windows,
                               std::size_t dimension, const ProfileParams& params) {
  svm::SvmConfig config;
  config.regularizer = params.regularizer;
  config.kernel = params.kernel;
  return UserProfile{std::move(user_id), params,
                     svm::SvmModel::train(params.type, windows, config, dimension)};
}

double UserProfile::decision_value(const util::SparseVector& window,
                                   double window_sqnorm,
                                   svm::TransformMode tier) const {
  return model_.decision_value(window, window_sqnorm, tier);
}

void UserProfile::decision_values(const util::FeatureMatrix& windows,
                                  std::span<double> out,
                                  svm::TransformMode tier) const {
  model_.decision_values(windows, out, tier);
}

double UserProfile::acceptance_ratio(const util::FeatureMatrix& windows,
                                     double slack,
                                     svm::TransformMode tier) const {
  if (windows.empty()) return 0.0;
  thread_local std::vector<double> values;
  values.resize(windows.rows());
  decision_values(windows, values, tier);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < windows.rows(); ++i) {
    if (values[i] >= -slack) ++accepted;
  }
  return static_cast<double>(accepted) / static_cast<double>(windows.rows());
}

void score_windows(std::span<const UserProfile> profiles,
                   const util::FeatureMatrix& windows, std::span<double> out,
                   svm::TransformMode tier, util::ThreadPool* pool) {
  const std::size_t w = windows.rows();
  if (out.size() != profiles.size() * w) {
    throw std::invalid_argument{
        "score_windows: out holds " + std::to_string(out.size()) +
        " values for " + std::to_string(profiles.size()) + " x " +
        std::to_string(w) + " decisions"};
  }
  if (w == 0) return;
  const auto score_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      profiles[i].decision_values(windows, out.subspan(i * w, w), tier);
    }
  };
  if (pool == nullptr || profiles.size() < 2) {
    score_range(0, profiles.size());
    return;
  }
  // One task per thread (not parallel_for's four shards per thread); like
  // parallel_for, a per-call latch lets several threads score concurrently
  // on the shared pool.
  const std::size_t chunk_count = std::min(profiles.size(), pool->thread_count());
  const std::size_t chunk = (profiles.size() + chunk_count - 1) / chunk_count;
  const std::size_t tasks = (profiles.size() + chunk - 1) / chunk;
  std::latch done{static_cast<std::ptrdiff_t>(tasks)};
  for (std::size_t t = 0; t < tasks; ++t) {
    const std::size_t begin = t * chunk;
    const std::size_t end = std::min(profiles.size(), begin + chunk);
    pool->submit([&score_range, &done, begin, end] {
      score_range(begin, end);
      done.count_down();
    });
  }
  done.wait();
}

std::size_t UserProfile::support_vector_count() const {
  return model_.support_vectors().rows();
}

}  // namespace wtp::core
