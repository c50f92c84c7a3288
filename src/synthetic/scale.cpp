#include "synthetic/scale.h"

#include <algorithm>
#include <cstdio>

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
  return sample_window(u, salt, footprint(u));
}

util::SparseVector ScalePopulation::sample_window(
    std::size_t u, std::uint64_t salt,
    std::span<const std::uint32_t> identity) const {
  util::Rng user_rng{mix(config_.seed, u, 0x7261697473ULL)};  // stable traits
  const double private_base = user_rng.uniform(0.05, 0.95);
  const double risk_base = user_rng.uniform(0.0, 0.5);
  const double verified_base = user_rng.uniform(0.3, 1.0);

  util::Rng rng{mix(config_.seed, u, salt + 1)};
  std::vector<util::SparseVector::Entry> entries;
  entries.reserve(identity.size() + 8);

  std::size_t active = 0;
  for (const std::uint32_t col : identity) {
    if (rng.bernoulli(config_.window_activation)) {
      entries.push_back({col, 1.0});
      ++active;
    }
  }
  if (active == 0) {  // a window always shows some identity signal
    entries.push_back({identity.front(), 1.0});
    active = 1;
  }

  // Off-footprint noise: occasional one-off visits outside the profile.
  const std::uint64_t noise =
      rng.poisson(config_.noise_rate * static_cast<double>(active));
  for (std::uint64_t i = 0; i < noise; ++i) {
    const std::size_t offset = schema_.group_offset(FeatureGroup::kCategory);
    const std::size_t size = schema_.group_size(FeatureGroup::kCategory);
    if (size == 0) break;
    entries.push_back(
        {static_cast<std::uint32_t>(offset + rng.uniform_index(size)), 1.0});
  }

  // Fixed groups: one action, one scheme, numeric averages around the
  // user's stable traits.
  const auto group_pick = [&](FeatureGroup group) {
    return schema_.group_offset(group) +
           rng.uniform_index(schema_.group_size(group));
  };
  entries.push_back({group_pick(FeatureGroup::kHttpAction), 1.0});
  entries.push_back({group_pick(FeatureGroup::kUriScheme), 1.0});
  const auto jitter = [&](double base) {
    return std::clamp(base + rng.uniform(-0.05, 0.05), 0.0, 1.0);
  };
  entries.push_back({schema_.private_flag_column(), jitter(private_base)});
  entries.push_back({schema_.reputation_risk_column(), jitter(risk_base)});
  entries.push_back(
      {schema_.reputation_verified_column(), jitter(verified_base)});

  // Deduplicate bag-of-words collisions (noise hitting a footprint column):
  // keep each column once — the constructor would *sum* duplicates.
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.index < b.index; });
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const auto& a, const auto& b) {
                              return a.index == b.index;
                            }),
                entries.end());
  return util::SparseVector{std::move(entries)};
}

svm::OneClassSvmModel ScalePopulation::make_model(std::size_t u) const {
  const std::size_t m = std::max<std::size_t>(config_.svs_per_user, 1);
  const std::vector<std::uint32_t> identity = footprint(u);
  std::vector<util::SparseVector> windows;
  windows.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    windows.push_back(sample_window(u, 0x10000 + i, identity));
  }
  util::FeatureMatrix svs =
      util::FeatureMatrix::from_rows(windows, schema_.dimension());

  // Trained-equivalent parts: uniform alpha (the paper's normalization has
  // sum(alpha) = 1), rho at a self-score quantile so ~rho_quantile of the
  // training windows fall outside their own profile.
  const double alpha = 1.0 / static_cast<double>(m);
  std::vector<double> coefficients(m, alpha);
  std::vector<double> self_scores(m, 0.0);
  const auto row = svm::kernel_row_scratch(m);
  const svm::KernelMatrix matrix = svm::kernel_matrix(svs);
  for (std::size_t i = 0; i < m; ++i) {
    svm::kernel_block(config_.kernel, matrix, svm::KernelQueries::rows(matrix, i, 1),
                      row);
    double score = 0.0;
    for (std::size_t j = 0; j < m; ++j) score += coefficients[j] * row[j];
    self_scores[i] = score;
  }
  std::sort(self_scores.begin(), self_scores.end());
  const auto quantile = static_cast<std::size_t>(
      config_.rho_quantile * static_cast<double>(m - 1));
  const double rho = self_scores[std::min(quantile, m - 1)];
  return svm::OneClassSvmModel::from_parts(config_.kernel, std::move(svs),
                                           std::move(coefficients), rho);
}

}  // namespace wtp::synthetic
