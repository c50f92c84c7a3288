#include "util/stats.h"

#include <algorithm>
#include <stdexcept>

namespace wtp::util {

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return count_ >= 2 ? m2_ / static_cast<double>(count_) : 0.0;
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double quantile(std::span<const double> xs, double q) {
  if (xs.empty()) throw std::invalid_argument{"quantile: empty input"};
  if (q < 0.0 || q > 1.0) throw std::invalid_argument{"quantile: q outside [0,1]"};
  std::vector<double> sorted{xs.begin(), xs.end()};
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

BoxPlot box_plot(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument{"box_plot: empty input"};
  BoxPlot box;
  box.q1 = quantile(xs, 0.25);
  box.median = quantile(xs, 0.5);
  box.q3 = quantile(xs, 0.75);
  const double iqr = box.q3 - box.q1;
  const double fence_low = box.q1 - 1.5 * iqr;
  const double fence_high = box.q3 + 1.5 * iqr;
  box.whisker_low = box.q3;
  box.whisker_high = box.q1;
  for (const double x : xs) {
    if (x < fence_low || x > fence_high) {
      ++box.outliers;
      continue;
    }
    box.whisker_low = std::min(box.whisker_low, x);
    box.whisker_high = std::max(box.whisker_high, x);
  }
  return box;
}

namespace {

/// Welford mean, the same sum RunningStats keeps.
double mean(std::span<const double> xs) noexcept {
  RunningStats stats;
  for (const double x : xs) stats.add(x);
  return stats.mean();
}

}  // namespace

LinearFit linear_fit(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size() || xs.size() < 2) {
    throw std::invalid_argument{"linear_fit: need two equal-length samples"};
  }
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  LinearFit fit;
  if (sxx == 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = syy == 0.0 ? 1.0 : (sxy * sxy) / (sxx * syy);
  return fit;
}

}  // namespace wtp::util
