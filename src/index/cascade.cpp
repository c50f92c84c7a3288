#include "index/cascade.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>

#include "features/schema.h"
#include "svm/kernel.h"

namespace wtp::index {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ns(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

/// Per-thread scratch shared by every plane on the thread; the epoch tag
/// makes stale per-user entries from other calls (or other planes) invisible
/// without clearing.
struct Scratch {
  std::vector<double> dense;      ///< query scattered densely over columns
  std::vector<float> score;       ///< per-user stage score
  std::vector<std::uint32_t> hits;  ///< per-user stage-1 matching columns
  std::vector<std::uint32_t> tag;   ///< epoch of the user's score/hits entry
  std::vector<std::uint32_t> touched;
  std::vector<std::uint32_t> survivors;
  std::uint32_t epoch = 0;
};

Scratch& scratch_for(std::size_t users, std::size_t dimension) {
  thread_local Scratch scratch;
  if (scratch.dense.size() < dimension) scratch.dense.resize(dimension, 0.0);
  if (scratch.score.size() < users) {
    scratch.score.resize(users, 0.0f);
    scratch.hits.resize(users, 0);
    scratch.tag.resize(users, 0);
  }
  ++scratch.epoch;
  if (scratch.epoch == 0) {  // wrapped: stale tags could collide, clear them
    std::fill(scratch.tag.begin(), scratch.tag.end(), 0u);
    scratch.epoch = 1;
  }
  return scratch;
}

/// Shrinks `candidates` to its `keep` best by (score desc, index asc) — the
/// ascending-index tie-break keeps stage output deterministic.
void keep_top(std::vector<std::uint32_t>& candidates,
              std::span<const float> score, std::size_t keep) {
  if (keep == 0 || candidates.size() <= keep) return;
  const auto better = [&score](std::uint32_t a, std::uint32_t b) {
    if (score[a] != score[b]) return score[a] > score[b];
    return a < b;
  };
  std::nth_element(candidates.begin(), candidates.begin() + (keep - 1),
                   candidates.end(), better);
  candidates.resize(keep);
};

}  // namespace

struct IdentificationPlane::Metrics {
  obs::Counter* windows;
  obs::Counter* overlap_survivors;
  obs::Counter* centroid_survivors;
  obs::Counter* gaussian_survivors;
  obs::Counter* kernel_row_calls;
  obs::Counter* exhaustive_windows;
  obs::Counter* exhaustive_kernel_row_calls;
  obs::Timer* stage_overlap;
  obs::Timer* stage_centroid;
  obs::Timer* stage_gaussian;
  obs::Timer* stage_svm;
  obs::Timer* total;

  explicit Metrics(obs::Registry& registry) {
    const auto stage = [&registry](std::string_view value) {
      const obs::Label label{"stage", std::string{value}};
      return &registry.timer("index.stage_ns", std::span{&label, 1});
    };
    const auto survivors = [&registry](std::string_view value) {
      const obs::Label label{"stage", std::string{value}};
      return &registry.counter("index.survivors", std::span{&label, 1});
    };
    windows = &registry.counter("index.windows");
    overlap_survivors = survivors("overlap");
    centroid_survivors = survivors("centroid");
    gaussian_survivors = survivors("gaussian");
    kernel_row_calls = &registry.counter("index.kernel_row_calls");
    exhaustive_windows = &registry.counter("index.exhaustive_windows");
    exhaustive_kernel_row_calls =
        &registry.counter("index.exhaustive_kernel_row_calls");
    stage_overlap = stage("overlap");
    stage_centroid = stage("centroid");
    stage_gaussian = stage("gaussian");
    stage_svm = stage("svm");
    total = &registry.timer("index.identify_ns");
  }
};

IdentificationPlane::IdentificationPlane(const ProfileCatalog& catalog,
                                         CascadeConfig config)
    : catalog_{&catalog}, config_{config} {
  if (config_.registry != nullptr) {
    registry_ = config_.registry;
  } else {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }
  metrics_ = std::make_unique<Metrics>(*registry_);
  build(catalog);
}

IdentificationPlane::~IdentificationPlane() = default;

void IdentificationPlane::build(const ProfileCatalog& catalog) {
  const std::size_t n = catalog.size();
  dimension_ = catalog.schema().dimension();
  prune_start_ = catalog.schema().group_offset(features::FeatureGroup::kCategory);

  inv_sqrt_support_.resize(n, 0.0f);
  mean_sqnorm_.resize(n, 0.0f);
  gauss_base_.resize(n, 0.0f);
  gate_offsets_.clear();
  gate_offsets_.reserve(n + 1);
  gate_offsets_.push_back(0);

  std::vector<double> sum(dimension_, 0.0);
  std::vector<double> sum_sq(dimension_, 0.0);
  std::vector<char> seen(dimension_, 0);
  std::vector<std::uint32_t> touched;

  // Per-column sums over the SV rows, in row order per column.
  const auto add = [&](std::uint32_t col, double value, double square) {
    if (col >= dimension_) return;  // blob validated against its own cols
    if (!seen[col]) {
      seen[col] = 1;
      touched.push_back(col);
    }
    sum[col] += value;
    sum_sq[col] += square;
  };
  for (std::size_t u = 0; u < n; ++u) {
    const svm::ModelView view = catalog.model(u);
    const svm::KernelMatrix& svs = view.support_vectors;
    const std::size_t m = svs.rows();
    if (svs.has_rows()) {
      for (std::size_t r = 0; r < m; ++r) {
        const auto indices = svs.csr.row_indices(r);
        const auto values = svs.csr.row_values(r);
        for (std::size_t k = 0; k < indices.size(); ++k) {
          add(indices[k], values[k], values[k] * values[k]);
        }
      }
    } else {
      // A bit is a 1.0 entry, and 1.0 added k times from 0 is exactly k, so
      // a binary column's sums are its count of rows setting the bit — what
      // the CSR walk's adds give.  Numeric columns add their values in row
      // order.
      const util::BitsetView& bits = *svs.bitset;
      for (std::size_t w = 0; w < bits.words_per_row; ++w) {
        std::uint64_t any = 0;
        for (std::size_t r = 0; r < m; ++r) any |= bits.row_words(r)[w];
        for (; any != 0; any &= any - 1) {
          const int bit = std::countr_zero(any);
          std::uint32_t count = 0;
          for (std::size_t r = 0; r < m; ++r) {
            count += static_cast<std::uint32_t>(bits.row_words(r)[w] >> bit) & 1U;
          }
          add(static_cast<std::uint32_t>(w * 64 + bit), count, count);
        }
      }
      for (std::size_t k = 0; k < bits.numeric_cols.size(); ++k) {
        for (std::size_t r = 0; r < m; ++r) {
          const double value = bits.row_numeric(r)[k];
          if (value != 0.0) add(bits.numeric_cols[k], value, value * value);
        }
      }
    }
    std::sort(touched.begin(), touched.end());

    const double inv_m = m > 0 ? 1.0 / static_cast<double>(m) : 0.0;
    double mean_sqnorm = 0.0;
    double gauss_base = 0.0;
    std::size_t posting_cols = 0;
    for (const std::uint32_t col : touched) {
      const double mean = sum[col] * inv_m;
      const double variance =
          std::max(sum_sq[col] * inv_m - mean * mean, 0.0);
      const double inv_var = 1.0 / std::max(variance, config_.variance_floor);
      gate_cols_.push_back(col);
      gate_mean_.push_back(static_cast<float>(mean));
      gate_inv_var_.push_back(static_cast<float>(inv_var));
      mean_sqnorm += mean * mean;
      gauss_base += mean * mean * inv_var;
      if (col >= prune_start_) ++posting_cols;
      sum[col] = 0.0;
      sum_sq[col] = 0.0;
      seen[col] = 0;
    }
    mean_sqnorm_[u] = static_cast<float>(mean_sqnorm);
    gauss_base_[u] = static_cast<float>(gauss_base);
    inv_sqrt_support_[u] =
        posting_cols > 0
            ? static_cast<float>(1.0 / std::sqrt(static_cast<double>(posting_cols)))
            : 0.0f;
    gate_offsets_.push_back(gate_cols_.size());
    touched.clear();
  }

  // CSC posting lists over the identity columns: count, prefix-sum, fill.
  // Users are appended in ascending order, so each list is sorted.
  const std::size_t posting_cols = dimension_ - prune_start_;
  std::vector<std::size_t> counts(posting_cols, 0);
  for (const std::uint32_t col : gate_cols_) {
    if (col >= prune_start_) ++counts[col - prune_start_];
  }
  posting_offsets_.assign(posting_cols + 1, 0);
  for (std::size_t c = 0; c < posting_cols; ++c) {
    posting_offsets_[c + 1] = posting_offsets_[c] + counts[c];
  }
  posting_users_.resize(posting_offsets_.back());
  std::vector<std::size_t> cursor{posting_offsets_.begin(),
                                  posting_offsets_.end() - 1};
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t k = gate_offsets_[u]; k < gate_offsets_[u + 1]; ++k) {
      const std::uint32_t col = gate_cols_[k];
      if (col >= prune_start_) {
        posting_users_[cursor[col - prune_start_]++] = static_cast<std::uint32_t>(u);
      }
    }
  }
}

IdentificationResult IdentificationPlane::score_survivors(
    std::span<const std::uint32_t> survivors,
    std::span<const std::uint32_t> query_indices,
    std::span<const double> query_values, double query_sqnorm,
    svm::TransformMode tier) const {
  IdentificationResult result;
  result.scored = survivors.size();
  // One bitset encoding of the query serves every survivor whose SV block
  // shares the schema layout (all of them, for same-store catalogs) — the
  // encode cost is paid once per window, not once per scored user.
  svm::EncodedQueryCache query_cache;
  const auto query = svm::KernelQueries::row(query_indices, query_values,
                                             query_sqnorm, &query_cache);
  for (const std::uint32_t u : survivors) {
    const double decision = catalog_->model(u).decision_value(query, tier);
    if (decision > result.best_decision) {
      result.best_decision = decision;
      result.best = u;
    }
    if (decision >= 0.0) result.accepted.push_back(u);
  }
  return result;
}

IdentificationResult IdentificationPlane::identify(
    std::span<const std::uint32_t> query_indices,
    std::span<const double> query_values, double query_sqnorm,
    svm::TransformMode tier) const {
  const auto total_start = Clock::now();
  const std::size_t n = catalog_->size();
  Scratch& scratch = scratch_for(n, dimension_);
  metrics_->windows->add();

  // Stage 1: posting-list overlap.
  auto stage_start = Clock::now();
  scratch.touched.clear();
  for (std::size_t k = 0; k < query_indices.size(); ++k) {
    const std::uint32_t col = query_indices[k];
    if (col < prune_start_ || col >= dimension_ || query_values[k] == 0.0) {
      continue;
    }
    const std::size_t c = col - prune_start_;
    const std::size_t begin = posting_offsets_[c];
    const std::size_t end = posting_offsets_[c + 1];
    for (std::size_t p = begin; p < end; ++p) {
      const std::uint32_t u = posting_users_[p];
      if (scratch.tag[u] != scratch.epoch) {
        scratch.tag[u] = scratch.epoch;
        scratch.score[u] = inv_sqrt_support_[u];
        scratch.hits[u] = 1;
        scratch.touched.push_back(u);
      } else {
        scratch.score[u] += inv_sqrt_support_[u];
        ++scratch.hits[u];
      }
    }
  }
  auto& survivors = scratch.survivors;
  survivors.clear();
  if (scratch.touched.empty() || config_.min_overlap == 0) {
    // No identity overlap anywhere (or ranking disabled): every user passes,
    // untouched ones with overlap score 0 — never a silent prune.
    survivors.resize(n);
    for (std::size_t u = 0; u < n; ++u) {
      survivors[u] = static_cast<std::uint32_t>(u);
      if (scratch.tag[u] != scratch.epoch) {
        scratch.tag[u] = scratch.epoch;
        scratch.score[u] = 0.0f;
        scratch.hits[u] = 0;
      }
    }
  } else {
    for (const std::uint32_t u : scratch.touched) {
      if (scratch.hits[u] >= config_.min_overlap) survivors.push_back(u);
    }
    if (survivors.empty()) {  // min_overlap filtered everyone: fall back
      survivors.assign(scratch.touched.begin(), scratch.touched.end());
    }
  }
  keep_top(survivors, scratch.score, config_.overlap_keep);
  IdentificationResult result;
  result.stage_ns[0] = static_cast<std::int64_t>(elapsed_ns(stage_start));
  metrics_->stage_overlap->record_ns(static_cast<double>(result.stage_ns[0]));
  result.overlap_survivors = survivors.size();
  metrics_->overlap_survivors->add(survivors.size());

  // Scatter the query densely once for both gate stages.
  for (std::size_t k = 0; k < query_indices.size(); ++k) {
    if (query_indices[k] < dimension_) {
      scratch.dense[query_indices[k]] = query_values[k];
    }
  }

  // Stage 2: centroid gate.  score = 2 x·μ − ||μ||², the user-dependent part
  // of −||x − μ||² (higher = closer to the user's SV mean).
  stage_start = Clock::now();
  if (config_.centroid_keep > 0 && survivors.size() > config_.centroid_keep) {
    for (const std::uint32_t u : survivors) {
      double dot = 0.0;
      for (std::size_t k = gate_offsets_[u]; k < gate_offsets_[u + 1]; ++k) {
        dot += scratch.dense[gate_cols_[k]] * gate_mean_[k];
      }
      scratch.score[u] = static_cast<float>(2.0 * dot - mean_sqnorm_[u]);
    }
    keep_top(survivors, scratch.score, config_.centroid_keep);
  }
  result.stage_ns[1] = static_cast<std::int64_t>(elapsed_ns(stage_start));
  metrics_->stage_centroid->record_ns(static_cast<double>(result.stage_ns[1]));
  result.centroid_survivors = survivors.size();
  metrics_->centroid_survivors->add(survivors.size());

  // Stage 3: diagonal gaussian gate.  score = −Mahalanobis² up to the
  // query-constant term floor⁻¹·||x||² (dropped: it cannot change ranks).
  stage_start = Clock::now();
  if (config_.final_keep > 0 && survivors.size() > config_.final_keep) {
    const double inv_floor = 1.0 / config_.variance_floor;
    for (const std::uint32_t u : survivors) {
      double distance = gauss_base_[u];
      for (std::size_t k = gate_offsets_[u]; k < gate_offsets_[u + 1]; ++k) {
        const double x = scratch.dense[gate_cols_[k]];
        if (x == 0.0) continue;
        const double mean = gate_mean_[k];
        distance += (x * x - 2.0 * x * mean) * gate_inv_var_[k] -
                    x * x * inv_floor;
      }
      scratch.score[u] = static_cast<float>(-distance);
    }
    keep_top(survivors, scratch.score, config_.final_keep);
  }
  result.stage_ns[2] = static_cast<std::int64_t>(elapsed_ns(stage_start));
  metrics_->stage_gaussian->record_ns(static_cast<double>(result.stage_ns[2]));
  result.gaussian_survivors = survivors.size();
  metrics_->gaussian_survivors->add(survivors.size());

  // Unscatter before the (potentially slow) SVM stage.
  for (const std::uint32_t col : query_indices) {
    if (col < dimension_) scratch.dense[col] = 0.0;
  }

  // Stage 4: full decisions for the survivors, ascending catalog order so
  // the first-max tie-break matches exhaustive fan-out exactly.
  stage_start = Clock::now();
  std::sort(survivors.begin(), survivors.end());
  IdentificationResult scored = score_survivors(
      survivors, query_indices, query_values, query_sqnorm, tier);
  result.stage_ns[3] = static_cast<std::int64_t>(elapsed_ns(stage_start));
  metrics_->stage_svm->record_ns(static_cast<double>(result.stage_ns[3]));
  metrics_->kernel_row_calls->add(scored.scored);

  result.best = scored.best;
  result.best_decision = scored.best_decision;
  result.scored = scored.scored;
  result.accepted = std::move(scored.accepted);
  result.total_ns = static_cast<std::int64_t>(elapsed_ns(total_start));
  metrics_->total->record_ns(static_cast<double>(result.total_ns));
  return result;
}

IdentificationResult IdentificationPlane::identify(
    const util::SparseVector& x, svm::TransformMode tier) const {
  const auto query = svm::KernelQueries::row(x, x.squared_norm());
  const util::CsrView row = query.csr();
  return identify(row.row_indices(0), row.row_values(0), row.sq_norm(0), tier);
}

IdentificationResult IdentificationPlane::identify_exhaustive(
    std::span<const std::uint32_t> query_indices,
    std::span<const double> query_values, double query_sqnorm,
    svm::TransformMode tier) const {
  const std::size_t n = catalog_->size();
  Scratch& scratch = scratch_for(n, dimension_);
  auto& survivors = scratch.survivors;
  survivors.resize(n);
  for (std::size_t u = 0; u < n; ++u) {
    survivors[u] = static_cast<std::uint32_t>(u);
  }
  metrics_->exhaustive_windows->add();
  IdentificationResult result = score_survivors(
      survivors, query_indices, query_values, query_sqnorm, tier);
  result.overlap_survivors = n;
  result.centroid_survivors = n;
  result.gaussian_survivors = n;
  metrics_->exhaustive_kernel_row_calls->add(result.scored);
  return result;
}

IdentificationResult IdentificationPlane::identify_exhaustive(
    const util::SparseVector& x, svm::TransformMode tier) const {
  const auto query = svm::KernelQueries::row(x, x.squared_norm());
  const util::CsrView row = query.csr();
  return identify_exhaustive(row.row_indices(0), row.row_values(0),
                             row.sq_norm(0), tier);
}

}  // namespace wtp::index
