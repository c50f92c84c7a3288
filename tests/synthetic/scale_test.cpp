#include "synthetic/scale.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>

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

  void add(const svm::OneClassSvmModel& model) {
    const util::CsrView svs = model.support_vectors().view();
    add(svs.indices);
    add(svs.values);
    add(svs.row_offsets);
    add(svs.sq_norms);
    add(std::span<const double>{model.coefficients()});
    add(model.rho());
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
    const svm::OneClassSvmModel model = population.make_model(u);
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

}  // namespace
}  // namespace wtp::synthetic
