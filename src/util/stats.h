// Descriptive statistics used across evaluation code: a running
// mean/variance accumulator, quantiles and box-plot summaries for the
// timing figures, and the least-squares fit of Fig. 5.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace wtp::util {

/// Welford online accumulator: numerically stable mean/variance without
/// storing samples.  Used when aggregating per-user ratios across 25 users.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
  /// Population variance; 0 for fewer than 2 samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }

  /// Pools another accumulator into this one (Chan et al. parallel merge).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Quantile with linear interpolation between order statistics (type-7, the
/// numpy default).  q must be in [0,1]; xs need not be sorted.
[[nodiscard]] double quantile(std::span<const double> xs, double q);

/// Five-number summary used to print the Fig. 4 box-and-whiskers data.
struct BoxPlot {
  double whisker_low = 0.0;   ///< smallest sample >= q1 - 1.5*IQR
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double whisker_high = 0.0;  ///< largest sample <= q3 + 1.5*IQR
  std::size_t outliers = 0;   ///< samples beyond the whiskers
};

[[nodiscard]] BoxPlot box_plot(std::span<const double> xs);

/// Least-squares slope/intercept/R^2 for the Fig. 5 linearity check.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
};

[[nodiscard]] LinearFit linear_fit(std::span<const double> xs,
                                   std::span<const double> ys);

}  // namespace wtp::util
