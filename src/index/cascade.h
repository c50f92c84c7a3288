// IdentificationPlane: the candidate-pruning cascade between serve and the
// per-user SVM scorers (DESIGN §10).
//
// The paper identifies a window by fanning it out to every user's one-class
// model — O(users) kernel rows per window.  Its own sparsity
// observation (users touch ≈18/105 categories, ≈17/257 subtypes) makes
// support overlap a strong prune signal, so the plane runs four stages of
// strictly increasing cost and strictly decreasing candidate count:
//
//   1. overlap   — inverted posting index over per-user support of the
//                  bag-of-words identity columns (category/supertype/
//                  subtype/application); score = Σ 1/√|support(u)| over
//                  matching columns.  O(query nnz × mean posting length).
//   2. centroid  — distance to the user's SV mean, sparse form of the
//                  oneclass centroid gate (query-constant terms dropped).
//   3. gaussian  — diagonal-covariance Mahalanobis distance over the user's
//                  SV block, sparse form of the oneclass gaussian gate.
//   4. svm       — full SVM decisions for the survivors only;
//                  argmax over those decisions.
//
// Stages 1-3 are rank-only: they choose WHICH users reach the SVMs, never
// what those SVMs decide, so a cascade argmax can differ from the
// exhaustive argmax only if the true best user is pruned upstream.  The
// keep-sizes are sized so that never happens (the no-false-prune invariant
// is asserted against exhaustive fan-out at every scale in
// bench/identification_scale).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "index/mapped_store.h"
#include "obs/registry.h"
#include "util/sparse_vector.h"

namespace wtp::index {

struct CascadeConfig {
  /// Survivor budgets per stage; each stage keeps min(budget, incoming).
  /// 0 disables the stage (passes everyone through).
  std::size_t overlap_keep = 1024;
  std::size_t centroid_keep = 256;
  std::size_t final_keep = 64;
  /// Users with fewer than this many matching posting columns never enter
  /// stage-1 ranking.  0 ranks every user (overlap stage only reorders).
  std::size_t min_overlap = 1;
  /// Variance floor of the gaussian gate (mirrors oneclass::GaussianModel).
  double variance_floor = 1e-4;
  /// Metrics sink; null = a private registry owned by the plane.
  obs::Registry* registry = nullptr;
};

struct IdentificationResult {
  /// Catalog index of the argmax user, or npos when the catalog is empty.
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();
  std::size_t best = npos;
  double best_decision = -std::numeric_limits<double>::infinity();
  /// Survivor counts after each stage (stage 4 'scored' = models scored,
  /// one kernel row each).
  std::size_t overlap_survivors = 0;
  std::size_t centroid_survivors = 0;
  std::size_t gaussian_survivors = 0;
  std::size_t scored = 0;
  /// Catalog indices whose decision value was >= 0, ascending.
  std::vector<std::uint32_t> accepted;
  /// Per-stage wall clock of this identify() call (overlap, centroid,
  /// gaussian, svm) — the slow-decision attribution feed.  All zero on the
  /// exhaustive path (no stages to attribute).
  std::int64_t stage_ns[4] = {0, 0, 0, 0};
  std::int64_t total_ns = 0;
};

class IdentificationPlane {
 public:
  /// Builds posting lists and gate statistics over `catalog` (one pass over
  /// every SV block).  The catalog must outlive the plane.
  IdentificationPlane(const ProfileCatalog& catalog, CascadeConfig config = {});
  ~IdentificationPlane();  // out-of-line: Metrics is incomplete here

  /// Full cascade.  Thread-safe (per-thread scratch); the query's squared
  /// norm is the caller's (serve computes it once per window).  `tier` is
  /// the transform precision of the stage-4 decisions (svm/kernel.h).
  [[nodiscard]] IdentificationResult identify(
      std::span<const std::uint32_t> query_indices,
      std::span<const double> query_values, double query_sqnorm,
      svm::TransformMode tier = svm::TransformMode::kExact) const;
  [[nodiscard]] IdentificationResult identify(
      const util::SparseVector& x,
      svm::TransformMode tier = svm::TransformMode::kExact) const;

  /// Exhaustive fan-out over the same catalog and scoring path — the ground
  /// truth the cascade is equivalence-checked against.
  [[nodiscard]] IdentificationResult identify_exhaustive(
      std::span<const std::uint32_t> query_indices,
      std::span<const double> query_values, double query_sqnorm,
      svm::TransformMode tier = svm::TransformMode::kExact) const;
  [[nodiscard]] IdentificationResult identify_exhaustive(
      const util::SparseVector& x,
      svm::TransformMode tier = svm::TransformMode::kExact) const;

  [[nodiscard]] const ProfileCatalog& catalog() const noexcept { return *catalog_; }
  [[nodiscard]] const CascadeConfig& config() const noexcept { return config_; }
  [[nodiscard]] obs::Registry& registry() const noexcept { return *registry_; }

 private:
  struct Metrics;

  void build(const ProfileCatalog& catalog);
  [[nodiscard]] IdentificationResult score_survivors(
      std::span<const std::uint32_t> survivors,
      std::span<const std::uint32_t> query_indices,
      std::span<const double> query_values, double query_sqnorm,
      svm::TransformMode tier) const;

  const ProfileCatalog* catalog_;
  CascadeConfig config_;
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_;
  std::unique_ptr<Metrics> metrics_;

  std::size_t dimension_ = 0;
  std::size_t prune_start_ = 0;  ///< first bag-of-words identity column

  // Inverted index: posting_users_[posting_offsets_[c - prune_start_] ..
  // posting_offsets_[c - prune_start_ + 1]) = users whose SV support
  // includes column c (CSC-flattened, users ascending).
  std::vector<std::size_t> posting_offsets_;
  std::vector<std::uint32_t> posting_users_;
  std::vector<float> inv_sqrt_support_;  ///< per user, 1/√(posting columns)

  // Per-user gate statistics over the SV block, SoA (f32: the gates only
  // rank, exact arithmetic lives in stage 4).  gate_cols_[gate_offsets_[u]
  // .. gate_offsets_[u+1]) = the user's support columns, ascending.
  std::vector<std::size_t> gate_offsets_;
  std::vector<std::uint32_t> gate_cols_;
  std::vector<float> gate_mean_;     ///< μ_j over SV rows, aligned with gate_cols_
  std::vector<float> gate_inv_var_;  ///< 1/max(σ²_j, floor)
  std::vector<float> mean_sqnorm_;   ///< per user, Σ μ_j²
  std::vector<float> gauss_base_;    ///< per user, Σ μ_j² · inv_var_j
};

}  // namespace wtp::index
