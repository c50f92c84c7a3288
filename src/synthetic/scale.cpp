#include "synthetic/scale.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <span>

#include "svm/kernel.h"
#include "synthetic/pools.h"

namespace wtp::synthetic {

namespace {

using features::FeatureGroup;

/// Deterministic stream split: one seed, independent streams per (user,
/// purpose, salt).
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  return util::splitmix64(state);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return mix(mix(a, b), c);
}

features::FeatureSchema build_schema(const ScaleConfig& config) {
  return features::FeatureSchema{
      category_pool(config.categories), media_super_type_pool(),
      media_type_pool(config.sub_types),
      application_type_pool(config.application_types)};
}

/// Picks ~poisson(mean) distinct Zipf-popular columns of one group.
void pick_footprint_columns(util::Rng& rng, const util::ZipfDistribution& rank,
                            std::size_t offset, std::size_t size, double mean,
                            std::vector<std::uint32_t>& out) {
  if (size == 0) return;
  const std::size_t count =
      std::clamp<std::size_t>(rng.poisson(mean), 1, size);
  std::vector<char> used(size, 0);
  std::size_t taken = 0;
  std::size_t attempts = 0;
  while (taken < count) {
    std::size_t r = rank(rng);
    if (++attempts > 8 * count) {  // dense pick in a small pool: probe up
      while (used[r]) r = (r + 1) % size;
    }
    if (used[r]) continue;
    used[r] = 1;
    out.push_back(static_cast<std::uint32_t>(offset + r));
    ++taken;
  }
}

/// A user's stable numeric traits, around which every window's numeric
/// columns jitter.
struct Traits {
  double private_base;
  double risk_base;
  double verified_base;
};

Traits user_traits(std::uint64_t seed, std::size_t u) {
  util::Rng rng{mix(seed, u, 0x7261697473ULL)};
  const double private_base = rng.uniform(0.05, 0.95);
  const double risk_base = rng.uniform(0.0, 0.5);
  const double verified_base = rng.uniform(0.3, 1.0);
  return {private_base, risk_base, verified_base};
}

/// Column buffers one model's windows reuse.
struct WindowScratch {
  std::vector<std::uint32_t> active;
  std::vector<std::uint32_t> noise;
};

/// The one window sampler: draws window (u, salt) over footprint
/// `identity` and appends it to `out` as a finished row.  Entries go in
/// ascending column order: the five fixed-group columns, which sit below
/// every bag-of-words column, then the active footprint merged with the
/// off-footprint noise.  A column drawn twice keeps one 1.0, and a numeric
/// value that clamps to 0.0 is dropped by finish_row.
void append_window(const ScaleConfig& config,
                   const features::FeatureSchema& schema, std::size_t u,
                   std::uint64_t salt, std::span<const std::uint32_t> identity,
                   const Traits& traits, WindowScratch& scratch,
                   util::FeatureMatrixBuilder& out) {
  util::Rng rng{mix(config.seed, u, salt + 1)};

  // Branch-free activation: every column is written, and only a hit
  // advances the cursor.
  std::vector<std::uint32_t>& active = scratch.active;
  active.resize(identity.size());
  std::size_t hits = 0;
  for (const std::uint32_t col : identity) {
    active[hits] = col;
    hits += static_cast<std::size_t>(rng.bernoulli(config.window_activation));
  }
  if (hits == 0) {  // a window always shows some identity signal
    active[0] = identity.front();
    hits = 1;
  }

  // Off-footprint noise: occasional one-off visits outside the profile.
  std::vector<std::uint32_t>& noise = scratch.noise;
  noise.clear();
  const std::uint64_t noise_count =
      rng.poisson(config.noise_rate * static_cast<double>(hits));
  const std::size_t category_offset = schema.group_offset(FeatureGroup::kCategory);
  const std::size_t category_size = schema.group_size(FeatureGroup::kCategory);
  for (std::uint64_t i = 0; i < noise_count && category_size > 0; ++i) {
    noise.push_back(static_cast<std::uint32_t>(
        category_offset + rng.uniform_index(category_size)));
  }
  std::sort(noise.begin(), noise.end());

  // Fixed groups: one action, one scheme, numeric averages around the
  // user's stable traits.
  const auto group_pick = [&](FeatureGroup group) {
    return schema.group_offset(group) +
           rng.uniform_index(schema.group_size(group));
  };
  const std::size_t action = group_pick(FeatureGroup::kHttpAction);
  const std::size_t scheme = group_pick(FeatureGroup::kUriScheme);
  const auto jitter = [&](double base) {
    return std::clamp(base + rng.uniform(-0.05, 0.05), 0.0, 1.0);
  };
  out.add(action, 1.0);
  out.add(scheme, 1.0);
  out.add(schema.private_flag_column(), jitter(traits.private_base));
  out.add(schema.reputation_risk_column(), jitter(traits.risk_base));
  out.add(schema.reputation_verified_column(), jitter(traits.verified_base));

  // Merge the two sorted bag-of-words lists, keeping each column once
  // (finish_row would sum duplicates).
  std::size_t a = 0;
  std::size_t n = 0;
  std::int64_t last = -1;
  while (a < hits || n < noise.size()) {
    const std::uint32_t col =
        n == noise.size() || (a < hits && active[a] <= noise[n]) ? active[a++]
                                                                  : noise[n++];
    if (col != last) out.add(col, 1.0);
    last = col;
  }
  out.finish_row();
}

}  // namespace

ScalePopulation::ScalePopulation(ScaleConfig config)
    : config_{config},
      schema_{build_schema(config)},
      category_rank_{std::max<std::size_t>(config.categories, 1),
                     config.popularity_zipf},
      super_type_rank_{schema_.group_size(FeatureGroup::kSuperType),
                       config.popularity_zipf},
      sub_type_rank_{std::max<std::size_t>(config.sub_types, 1),
                     config.popularity_zipf},
      application_rank_{std::max<std::size_t>(config.application_types, 1),
                        config.popularity_zipf} {}

std::string ScalePopulation::user_id(std::size_t u) const {
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "u%07zu", u);
  return buffer;
}

std::vector<std::uint32_t> ScalePopulation::footprint(std::size_t u) const {
  util::Rng rng{mix(config_.seed, u)};
  std::vector<std::uint32_t> columns;
  pick_footprint_columns(rng, category_rank_,
                         schema_.group_offset(FeatureGroup::kCategory),
                         schema_.group_size(FeatureGroup::kCategory),
                         config_.mean_categories, columns);
  pick_footprint_columns(rng, super_type_rank_,
                         schema_.group_offset(FeatureGroup::kSuperType),
                         schema_.group_size(FeatureGroup::kSuperType),
                         config_.mean_super_types, columns);
  pick_footprint_columns(rng, sub_type_rank_,
                         schema_.group_offset(FeatureGroup::kSubType),
                         schema_.group_size(FeatureGroup::kSubType),
                         config_.mean_sub_types, columns);
  pick_footprint_columns(rng, application_rank_,
                         schema_.group_offset(FeatureGroup::kApplicationType),
                         schema_.group_size(FeatureGroup::kApplicationType),
                         config_.mean_application_types, columns);
  std::sort(columns.begin(), columns.end());
  return columns;
}

util::SparseVector ScalePopulation::sample_window(std::size_t u,
                                                  std::uint64_t salt) const {
  WindowScratch scratch;
  util::FeatureMatrixBuilder builder;
  append_window(config_, schema_, u, salt, footprint(u),
                user_traits(config_.seed, u), scratch, builder);
  return builder.build(schema_.dimension()).row_vector(0);
}

svm::SvmModel ScalePopulation::make_model(std::size_t u) const {
  const std::size_t m = std::max<std::size_t>(config_.svs_per_user, 1);
  const std::vector<std::uint32_t> identity = footprint(u);
  const Traits traits = user_traits(config_.seed, u);
  WindowScratch scratch;
  util::FeatureMatrixBuilder builder;
  for (std::size_t i = 0; i < m; ++i) {
    append_window(config_, schema_, u, 0x10000 + i, identity, traits, scratch,
                  builder);
  }
  util::FeatureMatrix svs = builder.build(schema_.dimension());
  svs.ensure_bitset(schema_.numeric_columns());

  // Trained-equivalent parts: uniform alpha (the paper's normalization has
  // sum(alpha) = 1), rho at a self-score quantile so ~rho_quantile of the
  // training windows fall outside their own profile.  The self-scores read
  // the Gram's upper triangle — row i against rows [i, m) — mirrored: every
  // backend's k(x, y) equals k(y, x) bit for bit.
  const double alpha = 1.0 / static_cast<double>(m);
  std::vector<double> coefficients(m, alpha);
  // Row i's entries left of the diagonal were mirrored in by rows [0, i).
  std::vector<double> gram(m * m);
  std::vector<double> self_scores(m, 0.0);
  const svm::KernelMatrix matrix = svm::kernel_matrix(svs);
  for (std::size_t i = 0; i < m; ++i) {
    svm::KernelMatrix tail{matrix.csr.rows_slice(i, m - i), std::nullopt};
    if (matrix.bitset) tail.bitset = matrix.bitset->rows_slice(i, m - i);
    svm::kernel_block(config_.kernel, tail, svm::KernelQueries::rows(matrix, i, 1),
                      std::span{gram}.subspan(i * m + i, m - i));
    for (std::size_t j = i + 1; j < m; ++j) gram[j * m + i] = gram[i * m + j];
    double score = 0.0;
    for (std::size_t j = 0; j < m; ++j) score += coefficients[j] * gram[i * m + j];
    self_scores[i] = score;
  }
  std::sort(self_scores.begin(), self_scores.end());
  const auto quantile = static_cast<std::size_t>(
      config_.rho_quantile * static_cast<double>(m - 1));
  const double rho = self_scores[std::min(quantile, m - 1)];
  return svm::SvmModel::from_parts(svm::SvmKind::kOcSvm, config_.kernel,
                                   std::move(svs), std::move(coefficients), rho);
}

}  // namespace wtp::synthetic
