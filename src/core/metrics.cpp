#include "core/metrics.h"

#include <stdexcept>

#include "obs/trace.h"

namespace wtp::core {

AcceptanceRatios profile_acceptance(const UserProfile& profile,
                                    const MatrixByUser& windows, double slack) {
  AcceptanceRatios ratios;
  double other_sum = 0.0;
  std::size_t other_count = 0;
  for (const auto& [user, matrix] : windows) {
    const double accepted = profile.acceptance_ratio(*matrix, slack) * 100.0;
    if (user == profile.user_id()) {
      ratios.acc_self = accepted;
    } else {
      other_sum += accepted;
      ++other_count;
    }
  }
  if (other_count > 0) ratios.acc_other = other_sum / static_cast<double>(other_count);
  return ratios;
}

AcceptanceRatios mean_acceptance(std::span<const UserProfile> profiles,
                                 const MatrixByUser& windows) {
  if (profiles.empty()) {
    throw std::invalid_argument{"mean_acceptance: no profiles"};
  }
  AcceptanceRatios mean;
  for (const auto& profile : profiles) {
    const AcceptanceRatios ratios = profile_acceptance(profile, windows);
    mean.acc_self += ratios.acc_self;
    mean.acc_other += ratios.acc_other;
  }
  const auto n = static_cast<double>(profiles.size());
  mean.acc_self /= n;
  mean.acc_other /= n;
  return mean;
}

ConfusionMatrix compute_confusion(std::span<const UserProfile> profiles,
                                  const MatrixByUser& windows,
                                  svm::TransformMode tier) {
  ConfusionMatrix matrix;
  for (const auto& [user, user_windows] : windows) {
    (void)user_windows;
    matrix.users.push_back(user);
  }
  matrix.cells.resize(profiles.size());
  for (std::size_t j = 0; j < profiles.size(); ++j) {
    const obs::TraceSpan span{"classify.profile_row", "classify",
                              static_cast<std::uint64_t>(j)};
    matrix.cells[j].reserve(matrix.users.size());
    for (const auto& user : matrix.users) {
      matrix.cells[j].push_back(
          profiles[j].acceptance_ratio(*windows.at(user), 0.0, tier) * 100.0);
    }
  }
  return matrix;
}

double ConfusionMatrix::diagonal_mean() const {
  if (cells.empty()) return 0.0;
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < cells.size() && i < users.size(); ++i) {
    sum += cells[i][i];
    ++count;
  }
  return count ? sum / static_cast<double>(count) : 0.0;
}

double ConfusionMatrix::off_diagonal_mean() const {
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t j = 0; j < cells.size(); ++j) {
    for (std::size_t i = 0; i < cells[j].size(); ++i) {
      if (i == j) continue;
      sum += cells[j][i];
      ++count;
    }
  }
  return count ? sum / static_cast<double>(count) : 0.0;
}

double ConfusionMatrix::off_diagonal_zero_fraction() const {
  std::size_t zeros = 0;
  std::size_t count = 0;
  for (std::size_t j = 0; j < cells.size(); ++j) {
    for (std::size_t i = 0; i < cells[j].size(); ++i) {
      if (i == j) continue;
      ++count;
      if (cells[j][i] == 0.0) ++zeros;
    }
  }
  return count ? static_cast<double>(zeros) / static_cast<double>(count) : 0.0;
}

double ConfusionMatrix::off_diagonal_below(double percent) const {
  std::size_t below = 0;
  std::size_t count = 0;
  for (std::size_t j = 0; j < cells.size(); ++j) {
    for (std::size_t i = 0; i < cells[j].size(); ++i) {
      if (i == j) continue;
      ++count;
      if (cells[j][i] <= percent) ++below;
    }
  }
  return count ? static_cast<double>(below) / static_cast<double>(count) : 0.0;
}

}  // namespace wtp::core
