#include "synthetic/scale.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace wtp::synthetic {
namespace {

ScalePopulation small_population() {
  ScaleConfig config;
  config.seed = 7;
  config.users = 40;
  return ScalePopulation{config};
}

/// FNV-1a over a model's CSR arrays (indices, values, row offsets, squared
/// norms), its coefficients and rho, in that order.
class Digest {
 public:
  template <typename T>
  void add(std::span<const T> values) {
    add_bytes(values.data(), values.size_bytes());
  }
  void add(double value) { add_bytes(&value, sizeof value); }

  void add(const svm::SvmModel& model) {
    const util::CsrView svs = model.support_vectors().view();
    add(svs.indices);
    add(svs.values);
    add(svs.row_offsets);
    add(svs.sq_norms);
    add(std::span<const double>{model.coefficients()});
    add(model.scalar0());
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  void add_bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Pins make_model's output bytes: any rewrite of the footprint, window
// sampling or model assembly must reproduce these models exactly.
TEST(ScalePopulation, MakeModelDigestIsPinned) {
  const ScalePopulation population = small_population();
  Digest digest;
  std::size_t nnz = 0;
  for (std::size_t u = 0; u < population.size(); ++u) {
    const svm::SvmModel model = population.make_model(u);
    nnz += model.support_vectors().nnz();
    digest.add(model);
  }
  EXPECT_EQ(nnz, 21090u);
  EXPECT_EQ(digest.value(), 16591310898596595174ULL);
}

TEST(ScalePopulation, ModelsAreRebuiltIdentically) {
  const ScalePopulation population = small_population();
  for (const std::size_t u : {std::size_t{0}, std::size_t{17}, std::size_t{39}}) {
    Digest first;
    Digest second;
    first.add(population.make_model(u));
    second.add(population.make_model(u));
    EXPECT_EQ(first.value(), second.value()) << "user " << u;
  }
}

// sample_window and make_model share one sampler: SV row i of user u's
// model is window (u, 0x10000 + i), entry for entry.
TEST(ScalePopulation, SampleWindowMatchesModelRows) {
  const ScalePopulation population = small_population();
  for (std::size_t u = 0; u < population.size(); ++u) {
    const svm::SvmModel model = population.make_model(u);
    const util::FeatureMatrix& svs = model.support_vectors();
    ASSERT_EQ(svs.rows(), population.config().svs_per_user);
    for (std::size_t i = 0; i < svs.rows(); ++i) {
      const util::SparseVector window = population.sample_window(u, 0x10000 + i);
      const auto indices = svs.row_indices(i);
      const auto values = svs.row_values(i);
      ASSERT_EQ(indices.size(), window.nnz()) << "user " << u << " row " << i;
      for (std::size_t k = 0; k < indices.size(); ++k) {
        EXPECT_EQ(indices[k], window.entries()[k].index)
            << "user " << u << " row " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(values[k]),
                  std::bit_cast<std::uint64_t>(window.entries()[k].value))
            << "user " << u << " row " << i << " entry " << k;
      }
    }
  }
}

// The SV block takes the schema's numeric columns as its bitset layout,
// whatever the kernel backend, so the store writer serializes it as is.
TEST(ScalePopulation, ModelCarriesSchemaBitsetLayout) {
  const ScalePopulation population = small_population();
  const std::vector<std::uint32_t> numeric = population.schema().numeric_columns();
  for (const std::size_t u : {std::size_t{0}, std::size_t{17}, std::size_t{39}}) {
    const svm::SvmModel model = population.make_model(u);
    const std::optional<util::BitsetView> bits = model.support_vectors().bitset();
    ASSERT_TRUE(bits.has_value()) << "user " << u;
    EXPECT_TRUE(std::ranges::equal(bits->numeric_cols, numeric)) << "user " << u;
  }
}

}  // namespace
}  // namespace wtp::synthetic
