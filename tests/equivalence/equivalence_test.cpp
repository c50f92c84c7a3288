// Equivalence suite for the CSR FeatureMatrix data plane.
//
// The refactor's contract is that batch kernel rows over a FeatureMatrix are
// *bit-identical* to the per-pair SparseVector path: the scatter/gather dot
// visits matching indices in the same order as the merge-join dot, and the
// kernel transforms reuse the exact expressions of kernel_eval.  Every
// comparison below is exact (EXPECT_EQ on doubles), not approximate.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/grid_search.h"
#include "core/profile_store.h"
#include "core/profiler.h"
#include "index/cascade.h"
#include "index/mapped_store.h"
#include "oneclass/svm_adapter.h"
#include "svm/kernel.h"
#include "svm/kernel_cache.h"
#include "svm/model_io.h"
#include "synthetic/scale.h"
#include "util/feature_matrix.h"
#include "util/rng.h"
#include "util/sparse_vector.h"

namespace wtp {
namespace {

constexpr std::size_t kDim = 64;

/// Window-like sparse vectors: a handful of non-zeros out of kDim columns.
std::vector<util::SparseVector> synthetic_windows(std::uint64_t seed,
                                                  std::size_t count,
                                                  double center) {
  util::Rng rng{seed};
  std::vector<util::SparseVector> rows;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<util::SparseVector::Entry> entries;
    const std::size_t nnz = 4 + rng.uniform_index(8);
    for (std::size_t k = 0; k < nnz; ++k) {
      entries.push_back({rng.uniform_index(kDim), center + rng.normal(0.0, 1.0)});
    }
    rows.emplace_back(std::move(entries));
  }
  return rows;
}

std::vector<svm::KernelParams> all_kernels() {
  return {
      {svm::KernelType::kLinear, 1.0, 0.0, 3},
      {svm::KernelType::kPolynomial, 0.5, 1.0, 3},
      {svm::KernelType::kRbf, 0.25, 0.0, 3},
      {svm::KernelType::kSigmoid, 0.1, 0.5, 3},
  };
}

TEST(KernelEquivalence, KernelRowMatchesPerPairKernelEval) {
  const auto rows = synthetic_windows(11, 40, 0.5);
  const auto matrix = util::FeatureMatrix::from_rows(rows, kDim);
  const auto queries = synthetic_windows(12, 10, 0.5);
  std::vector<double> out(matrix.rows());
  const svm::KernelMatrix operand = svm::kernel_matrix(matrix);
  for (const auto& params : all_kernels()) {
    // External-query overload vs per-pair kernel_eval with cached norms.
    for (const auto& x : queries) {
      const double x_sqnorm = x.squared_norm();
      svm::kernel_block(params, operand, svm::KernelQueries::row(x, x_sqnorm),
                        out);
      for (std::size_t j = 0; j < rows.size(); ++j) {
        EXPECT_EQ(out[j], svm::kernel_eval(params, x, rows[j], x_sqnorm,
                                           rows[j].squared_norm()))
            << svm::describe(params) << " row " << j;
      }
    }
    // Row-query overload (SMO's Q-matrix path).
    for (std::size_t i = 0; i < rows.size(); ++i) {
      svm::kernel_block(params, operand, svm::KernelQueries::rows(operand, i, 1),
                        out);
      for (std::size_t j = 0; j < rows.size(); ++j) {
        EXPECT_EQ(out[j],
                  svm::kernel_eval(params, rows[i], rows[j],
                                   rows[i].squared_norm(), rows[j].squared_norm()))
            << svm::describe(params) << " pair (" << i << "," << j << ")";
      }
    }
    // Borrowed-CSR-row overload (batch scoring path).
    const auto query_matrix = util::FeatureMatrix::from_rows(queries, kDim);
    for (std::size_t q = 0; q < query_matrix.rows(); ++q) {
      svm::kernel_block(params, operand,
                        svm::KernelQueries::row(query_matrix.row_indices(q),
                                                query_matrix.row_values(q),
                                                query_matrix.sq_norm(q)),
                        out);
      for (std::size_t j = 0; j < rows.size(); ++j) {
        EXPECT_EQ(out[j], svm::kernel_eval(params, queries[q], rows[j],
                                           queries[q].squared_norm(),
                                           rows[j].squared_norm()));
      }
    }
  }
}

TEST(KernelEquivalence, KernelSelfMatchesCachedNormForm) {
  for (const auto& params : all_kernels()) {
    for (const auto& x : synthetic_windows(13, 10, 1.0)) {
      EXPECT_EQ(svm::kernel_self(params, x),
                svm::kernel_self(params, x.squared_norm()));
    }
  }
}

TEST(OneClassSvmEquivalence, DecisionMatchesManualSparseVectorSum) {
  const auto data = synthetic_windows(23, 50, 1.0);
  for (const auto& params : all_kernels()) {
    svm::SvmConfig config;
    config.regularizer = 0.25;
    config.kernel = params;
    const auto model = svm::SvmModel::train(
        svm::SvmKind::kOcSvm, util::FeatureMatrix::from_rows(data, kDim), config, kDim);
    const auto& svs = model.support_vectors();
    for (const auto& x : synthetic_windows(24, 15, 1.0)) {
      const double x_sqnorm = x.squared_norm();
      // Legacy per-pair evaluation in SV order, as the pre-CSR code did.
      double sum = 0.0;
      for (std::size_t i = 0; i < svs.rows(); ++i) {
        sum += model.coefficients()[i] *
               svm::kernel_eval(model.kernel(), x, svs.row_vector(i), x_sqnorm,
                                svs.sq_norm(i));
      }
      EXPECT_EQ(model.decision_value(x, x_sqnorm), sum - model.scalar0())
          << svm::describe(params);
    }
  }
}

TEST(OneClassSvmEquivalence, DecisionVariantsAgreeExactly) {
  const auto data = synthetic_windows(25, 50, 1.0);
  const auto probes = synthetic_windows(26, 12, 1.0);
  const auto probe_matrix = util::FeatureMatrix::from_rows(probes, kDim);
  for (const auto& params : all_kernels()) {
    svm::SvmConfig config;
    config.regularizer = 0.3;
    config.kernel = params;
    const auto model = svm::SvmModel::train(
        svm::SvmKind::kOcSvm, util::FeatureMatrix::from_rows(data, kDim), config, kDim);
    std::vector<double> batch(probe_matrix.rows());
    model.decision_values(probe_matrix, batch);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const double single =
          model.decision_value(probes[i], probes[i].squared_norm());
      EXPECT_EQ(single, batch[i]) << svm::describe(params) << " probe " << i;
    }
  }
}

TEST(SvddEquivalence, DecisionMatchesManualSparseVectorSum) {
  const auto data = synthetic_windows(33, 50, 1.0);
  for (const auto& params : all_kernels()) {
    svm::SvmConfig config;
    config.regularizer = 0.1;
    config.kernel = params;
    const auto model = svm::SvmModel::train(
        svm::SvmKind::kSvdd, util::FeatureMatrix::from_rows(data, kDim), config, kDim);
    const auto& svs = model.support_vectors();
    for (const auto& x : synthetic_windows(34, 15, 1.0)) {
      const double x_sqnorm = x.squared_norm();
      double cross = 0.0;
      for (std::size_t i = 0; i < svs.rows(); ++i) {
        cross += model.coefficients()[i] *
                 svm::kernel_eval(model.kernel(), x, svs.row_vector(i), x_sqnorm,
                                  svs.sq_norm(i));
      }
      const double k_xx = svm::kernel_self(model.kernel(), x_sqnorm);
      const double expected =
          model.scalar0() - (k_xx - 2.0 * cross + model.scalar1());
      EXPECT_EQ(model.decision_value(x, x_sqnorm), expected)
          << svm::describe(params);
    }
  }
}

TEST(SvddEquivalence, DecisionVariantsAgreeExactly) {
  const auto data = synthetic_windows(35, 50, 1.0);
  const auto probes = synthetic_windows(36, 12, 1.0);
  const auto probe_matrix = util::FeatureMatrix::from_rows(probes, kDim);
  svm::SvmConfig config;
  config.regularizer = 0.1;
  config.kernel = {svm::KernelType::kRbf, 0.25, 0.0, 3};
  const auto model = svm::SvmModel::train(
      svm::SvmKind::kSvdd, util::FeatureMatrix::from_rows(data, kDim), config, kDim);
  std::vector<double> batch(probe_matrix.rows());
  model.decision_values(probe_matrix, batch);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const double single =
        model.decision_value(probes[i], probes[i].squared_norm());
    EXPECT_EQ(single, batch[i]);
  }
}

/// FNV-1a over the bit patterns of every scoring output, in call order.
class DecisionDigest {
 public:
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(std::span<const double> values) {
    for (const double v : values) add(v);
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::vector<svm::KernelParams> paper_shaped_kernels() {
  return {
      {svm::KernelType::kLinear, 0.05, 0.0, 3},
      {svm::KernelType::kPolynomial, 0.05, 1.0, 3},
      {svm::KernelType::kRbf, 0.05, 0.0, 3},
      {svm::KernelType::kSigmoid, 0.01, 0.5, 3},
  };
}

/// Paper-schema windows (binary-dominant, three numeric columns), so the
/// bitset plane engages where a backend provides it.  The last probe has a
/// binary column at 2.0: it does not conform to any bitset layout and takes
/// the CSR fallback on every backend.
std::vector<util::SparseVector> digest_probes(
    const synthetic::ScalePopulation& population) {
  std::vector<util::SparseVector> probes;
  for (std::size_t u = 0; u < 6; ++u) {
    for (std::uint64_t salt = 0; salt < 4; ++salt) {
      probes.push_back(population.sample_window(u, 0xd1e5 + salt));
    }
  }
  std::vector<util::SparseVector::Entry> entries{
      probes.front().entries().begin(), probes.front().entries().end()};
  entries.front().value = 2.0;
  probes.emplace_back(std::move(entries));
  return probes;
}

// Every scoring path, pinned by one digest: a refactor of the kernel entry
// points or of the decision arithmetic must reproduce these bits exactly.
// The constant holds on every kernel backend (WTP_KERNEL_BACKEND) because
// all of them are bit-identical to the CSR oracle.
TEST(DecisionDigest, EveryScoringPathIsPinned) {
  synthetic::ScaleConfig scale;
  scale.seed = 5;
  scale.users = 24;
  const synthetic::ScalePopulation population{scale};
  const std::size_t dim = population.schema().dimension();
  const auto probes = digest_probes(population);
  const auto probe_matrix = util::FeatureMatrix::from_rows(probes, dim);

  core::MatrixByUser train_matrices;
  for (std::size_t u = 0; u < 4; ++u) {
    std::vector<util::SparseVector> rows;
    for (std::uint64_t salt = 0; salt < 40; ++salt) {
      rows.push_back(population.sample_window(u, salt));
    }
    train_matrices.emplace(population.user_id(u),
                          std::make_shared<const util::FeatureMatrix>(
                              util::FeatureMatrix::from_rows(rows, dim)));
  }
  const std::string user = population.user_id(0);
  const util::FeatureMatrix& train = *train_matrices.at(user);

  DecisionDigest digest;
  std::vector<double> batch(probe_matrix.rows());
  std::vector<double> row(train.rows());
  std::vector<std::byte> blobs;
  const svm::KernelMatrix train_operand = svm::kernel_matrix(train);
  for (const auto& kernel : paper_shaped_kernels()) {
    // Raw kernel rows of the training matrix, as the SMO solver sees them.
    for (std::size_t i = 0; i < train.rows(); ++i) {
      svm::kernel_block(kernel, train_operand,
                        svm::KernelQueries::rows(train_operand, i, 1), row);
      digest.add(row);
    }
    svm::SvmConfig oc;
    oc.regularizer = 0.3;
    oc.kernel = kernel;
    svm::SvmConfig sv;
    sv.regularizer = 0.1;
    sv.kernel = kernel;
    const std::vector<svm::SvmModel> models{
        svm::SvmModel::train(svm::SvmKind::kOcSvm, train, oc, dim),
        svm::SvmModel::train(svm::SvmKind::kSvdd, train, sv, dim)};
    for (const auto& model : models) {
      for (const auto& x : probes) {
        digest.add(model.decision_value(x, x.squared_norm()));
      }
      model.decision_values(probe_matrix, batch);
      digest.add(batch);
      const std::size_t offset = svm::append_model_blob(blobs, model);
      const svm::ModelView view =
          svm::view_model_blob(std::span{blobs}.subspan(offset));
      for (std::size_t q = 0; q < probe_matrix.rows(); ++q) {
        digest.add(view.decision_value(svm::KernelQueries::row(
            probe_matrix.row_indices(q), probe_matrix.row_values(q),
            probe_matrix.sq_norm(q))));
        svm::EncodedQueryCache cache;
        digest.add(view.decision_value(svm::KernelQueries::row(
            probe_matrix.row_indices(q), probe_matrix.row_values(q),
            probe_matrix.sq_norm(q), &cache)));
      }
    }
  }

  // One Tab. III regularizer column per classifier through the grid's
  // pair scorer (polynomial: the kernel whose ratios are not saturated on
  // this data).
  const std::vector<double> regularizers{0.1, 0.3, 0.5};
  const svm::KernelParams polynomial = paper_shaped_kernels()[1];
  util::ThreadPool grid_pool{1};
  for (const auto type :
       {core::ClassifierType::kOcSvm, core::ClassifierType::kSvdd}) {
    const auto grid = core::score_param_grid(train_matrices, {&user, 1}, type,
                                             {&polynomial, 1}, regularizers,
                                             dim, grid_pool);
    for (const auto& entry : grid.front()) {
      digest.add(entry.ratios.acc_self);
      digest.add(entry.ratios.acc_other);
    }
  }

  // The identification plane over a heap catalog: argmax and accept set.
  std::vector<core::UserProfile> profiles;
  const core::ProfileParams params{core::ClassifierType::kOcSvm,
                                   population.config().kernel, 0.5};
  for (std::size_t u = 0; u < population.size(); ++u) {
    profiles.push_back(core::UserProfile::from_model(population.user_id(u), params,
                                                     population.make_model(u)));
  }
  const core::ProfileStore store{population.window(), population.schema(),
                                 std::move(profiles)};
  const index::HeapProfileCatalog catalog{store};
  index::CascadeConfig config;
  config.final_keep = 8;
  const index::IdentificationPlane plane{catalog, config};
  for (const auto& x : probes) {
    for (const auto& result : {plane.identify(x), plane.identify_exhaustive(x)}) {
      digest.add(static_cast<std::uint64_t>(result.best));
      digest.add(result.best_decision);
      digest.add(static_cast<std::uint64_t>(result.accepted.size()));
      for (const std::uint32_t u : result.accepted) digest.add(std::uint64_t{u});
    }
  }

  EXPECT_EQ(digest.value(), 11490220996100638224ULL);
}

// The training plane, pinned by the model blobs it produces: every cell of a
// warm-started fit_path sweep (cells 2..n start from the previous solution)
// and a single-cell train(), for both model kinds and every paper-shaped
// kernel, on DecisionDigest's training matrices.  A refactor of the solver
// set-up or of the model classes must reproduce these bytes exactly.
TEST(TrainingDigest, FitPathBlobsArePinned) {
  synthetic::ScaleConfig scale;
  scale.seed = 5;
  scale.users = 24;
  const synthetic::ScalePopulation population{scale};
  const std::size_t dim = population.schema().dimension();
  // Descending, as in the paper's Tab. III column; 0.01 < 1/l clamps SVDD's C.
  const std::vector<double> regularizers{0.9, 0.5, 0.1, 0.05, 0.01};

  DecisionDigest digest;
  std::vector<std::byte> blob;
  const auto add_blob = [&](const svm::SvmModel& model) {
    blob.clear();
    (void)svm::append_model_blob(blob, model);
    for (const std::byte b : blob) digest.add(std::to_integer<std::uint64_t>(b));
  };
  for (std::size_t u = 0; u < 4; ++u) {
    std::vector<util::SparseVector> rows;
    for (std::uint64_t salt = 0; salt < 40; ++salt) {
      rows.push_back(population.sample_window(u, salt));
    }
    const auto train = util::FeatureMatrix::from_rows(rows, dim);
    for (const auto& kernel : paper_shaped_kernels()) {
      for (const auto kind : {svm::SvmKind::kOcSvm, svm::SvmKind::kSvdd}) {
        svm::SvmConfig config;
        config.kernel = kernel;
        config.regularizer = kind == svm::SvmKind::kOcSvm ? 0.3 : 0.1;
        for (const auto& model :
             svm::SvmModel::fit_path(kind, train, config, regularizers, dim)) {
          add_blob(model);
        }
        add_blob(svm::SvmModel::train(kind, train, config, dim));
      }
    }
  }

  EXPECT_EQ(digest.value(), 6718890952948798573ULL);
}

}  // namespace
}  // namespace wtp
