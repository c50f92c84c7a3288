// ScalePopulation: synthetic user populations for the million-user
// identification bench (bench/identification_scale).
//
// The enterprise trace generator (generator.h) produces full transaction
// logs — far too slow to train 10^6 profiles.  This plane skips transactions
// entirely and synthesizes at the *feature-vector* level, exploiting the
// paper's sparsity observation directly: each user gets a deterministic
// identity footprint (≈18/105 categories, ≈17/257 subtypes, Zipf-popular
// columns), windows are sampled by activating footprint columns plus a
// little off-footprint noise, and a trained-equivalent one-class SVM is
// assembled without SMO (support vectors = sampled windows, uniform alpha,
// rho from a self-score quantile).  Everything is a pure function of
// (seed, user, salt), so any user's model can be rebuilt in isolation —
// the store writer streams 10^6 models without ever holding two at once.
//
// make_model assembles a model in one pass.  One sampler writes each
// window's entries, already in column order, straight into the SV block's
// builder; sample_window wraps the same sampler for a single row.  The SV
// block takes the schema's bitset layout up front, and rho's self-scores
// come from the upper triangle of the SV Gram matrix (136 of 256 kernel
// values at 16 SVs), mirrored, since k(x, y) and k(y, x) agree bit for bit
// on every backend.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "features/schema.h"
#include "features/window.h"
#include "svm/svm_model.h"
#include "util/rng.h"
#include "util/sparse_vector.h"

namespace wtp::synthetic {

struct ScaleConfig {
  std::uint64_t seed = 42;
  std::size_t users = 1000;

  /// Vocabulary sizes (paper Tab. I scale by default → 843 columns).
  std::size_t categories = 105;
  std::size_t sub_types = 257;
  std::size_t application_types = 464;

  /// Mean footprint sizes per identity group (paper §IV sparsity: users
  /// touch ≈18 categories and ≈17 subtypes).
  double mean_categories = 18.0;
  double mean_super_types = 3.0;
  double mean_sub_types = 17.0;
  double mean_application_types = 12.0;

  /// Zipf exponent of column popularity inside each group (heavy-tailed
  /// site popularity: distinct users still share the head columns).
  double popularity_zipf = 0.9;

  /// Fraction of a window's identity columns drawn from outside the user's
  /// footprint (occasional one-off visits).
  double noise_rate = 0.05;
  /// Probability that a footprint column is active in any given window.
  double window_activation = 0.55;

  /// Trained-equivalent model shape.
  std::size_t svs_per_user = 16;
  svm::KernelParams kernel{svm::KernelType::kRbf, 0.05, 0.0, 3};
  /// rho = this quantile of the support vectors' own pre-rho scores
  /// (≈ fraction of training windows falling outside the profile).
  double rho_quantile = 0.15;

  features::WindowConfig window{60, 30};
};

class ScalePopulation {
 public:
  explicit ScalePopulation(ScaleConfig config = {});

  [[nodiscard]] std::size_t size() const noexcept { return config_.users; }
  [[nodiscard]] const ScaleConfig& config() const noexcept { return config_; }
  [[nodiscard]] const features::FeatureSchema& schema() const noexcept {
    return schema_;
  }
  [[nodiscard]] const features::WindowConfig& window() const noexcept {
    return config_.window;
  }

  /// "u0000042" — zero-padded so lexical order matches index order.
  [[nodiscard]] std::string user_id(std::size_t u) const;

  /// The user's identity footprint: sorted distinct bag-of-words columns.
  /// Deterministic in (seed, u); recomputed per call (nothing is cached, so
  /// 10^6 users cost no resident memory here).
  [[nodiscard]] std::vector<std::uint32_t> footprint(std::size_t u) const;

  /// One aggregated window for user u.  Distinct salts give distinct
  /// windows; the same (u, salt) is bit-identical across calls.
  [[nodiscard]] util::SparseVector sample_window(std::size_t u,
                                                 std::uint64_t salt) const;

  /// Trained-equivalent profile model for user u (see file comment).
  [[nodiscard]] svm::SvmModel make_model(std::size_t u) const;

 private:
  ScaleConfig config_;
  features::FeatureSchema schema_;
  util::ZipfDistribution category_rank_;
  util::ZipfDistribution super_type_rank_;
  util::ZipfDistribution sub_type_rank_;
  util::ZipfDistribution application_rank_;
};

}  // namespace wtp::synthetic
