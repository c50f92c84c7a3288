// Binary blob plane (the mmap path): header validation, corruption
// rejection, and the bit-identity contract — a blob-viewed model must score
// exactly like the heap model it was serialized from, and a materialized
// round trip must be bit-identical too.
#include "svm/model_io.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.h"

namespace wtp::svm {
namespace {

std::vector<util::SparseVector> training_blob(std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<util::SparseVector> points;
  for (int i = 0; i < 40; ++i) {
    std::vector<double> dense(7, 0.0);
    for (int k = 0; k < 4; ++k) dense[rng.uniform_index(7)] = rng.uniform();
    points.push_back(util::SparseVector::from_dense(dense));
  }
  return points;
}

std::vector<util::SparseVector> probes(std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<util::SparseVector> points;
  for (int i = 0; i < 25; ++i) {
    std::vector<double> dense(7, 0.0);
    for (int k = 0; k < 5; ++k) dense[rng.uniform_index(7)] = rng.uniform(-1.0, 2.0);
    points.push_back(util::SparseVector::from_dense(dense));
  }
  return points;
}

OneClassSvmModel make_one_class(std::uint64_t seed) {
  OneClassSvmConfig config;
  config.nu = 0.25;
  config.kernel = {KernelType::kRbf, 0.6, 0.0, 3};
  return OneClassSvmModel::train(training_blob(seed), config, 7);
}

SvddModel make_svdd(std::uint64_t seed) {
  SvddConfig config;
  config.c = 0.2;
  config.kernel = {KernelType::kPolynomial, 0.3, 1.0, 4};
  return SvddModel::train(training_blob(seed), config, 7);
}

template <typename Field>
void patch(std::vector<std::byte>& blob, std::size_t offset, Field value) {
  ASSERT_LE(offset + sizeof(Field), blob.size());
  std::memcpy(blob.data() + offset, &value, sizeof(Field));
}

TEST(ModelBlob, OneClassViewIsBitIdentical) {
  const auto model = make_one_class(11);
  std::vector<std::byte> blob;
  const std::size_t start = append_model_blob(blob, model);
  EXPECT_EQ(start, 0u);
  EXPECT_EQ(blob.size() % 8, 0u);

  const ModelView view = view_model_blob(blob);
  EXPECT_EQ(view.model_type, kBlobModelOneClass);
  EXPECT_EQ(view.kernel, model.kernel());
  EXPECT_EQ(view.scalar0, model.rho());
  EXPECT_EQ(view.sv_count(), model.support_vectors().rows());
  for (const auto& x : probes(12)) {
    // EXPECT_EQ, not DOUBLE_EQ: the contract is bit-identity, not closeness.
    ASSERT_EQ(view.decision_value(KernelQueries::row(x, x.squared_norm())),
              model.decision_value(x));
  }
}

TEST(ModelBlob, SvddViewIsBitIdentical) {
  const auto model = make_svdd(13);
  std::vector<std::byte> blob;
  append_model_blob(blob, model);

  const ModelView view = view_model_blob(blob);
  EXPECT_EQ(view.model_type, kBlobModelSvdd);
  EXPECT_EQ(view.scalar0, model.r_squared());
  EXPECT_EQ(view.scalar1, model.alpha_k_alpha());
  for (const auto& x : probes(14)) {
    ASSERT_EQ(view.decision_value(KernelQueries::row(x, x.squared_norm())),
              model.decision_value(x));
  }
}

TEST(ModelBlob, HeapViewMatchesBlobView) {
  const auto model = make_one_class(15);
  std::vector<std::byte> blob;
  append_model_blob(blob, model);
  const ModelView from_blob = view_model_blob(blob);
  const ModelView from_heap = view_of(model);
  for (const auto& x : probes(16)) {
    ASSERT_EQ(from_blob.decision_value(KernelQueries::row(x, x.squared_norm())),
              from_heap.decision_value(KernelQueries::row(x, x.squared_norm())));
  }
}

TEST(ModelBlob, MaterializedRoundTripIsBitIdentical) {
  const auto model = make_svdd(17);
  auto blob = std::make_shared<std::vector<std::byte>>();
  append_model_blob(*blob, model);
  const AnySvmModel round_trip = materialize(view_model_blob(*blob), blob);
  ASSERT_TRUE(std::holds_alternative<SvddModel>(round_trip));
  const auto& typed = std::get<SvddModel>(round_trip);
  EXPECT_EQ(typed.r_squared(), model.r_squared());
  EXPECT_EQ(typed.alpha_k_alpha(), model.alpha_k_alpha());
  for (const auto& x : probes(18)) {
    ASSERT_EQ(typed.decision_value(x), model.decision_value(x));
  }
}

TEST(ModelBlob, SecondBlobInOneBufferViewsCleanly) {
  std::vector<std::byte> buffer;
  const auto first = make_one_class(19);
  const auto second = make_svdd(20);
  const std::size_t first_off = append_model_blob(buffer, first);
  const std::size_t second_off = append_model_blob(buffer, second);
  EXPECT_EQ(second_off % 8, 0u);

  const ModelView v1 = view_model_blob(
      std::span{buffer}.subspan(first_off, second_off - first_off));
  const ModelView v2 = view_model_blob(std::span{buffer}.subspan(second_off));
  const auto x = probes(21).front();
  EXPECT_EQ(v1.decision_value(KernelQueries::row(x, x.squared_norm())),
            first.decision_value(x));
  EXPECT_EQ(v2.decision_value(KernelQueries::row(x, x.squared_norm())),
            second.decision_value(x));
}

TEST(ModelBlob, RejectsWrongMagic) {
  std::vector<std::byte> blob;
  append_model_blob(blob, make_one_class(22));
  blob[0] = std::byte{'X'};
  EXPECT_THROW((void)view_model_blob(blob), std::runtime_error);
}

TEST(ModelBlob, RejectsWrongVersion) {
  std::vector<std::byte> blob;
  append_model_blob(blob, make_one_class(23));
  patch(blob, 8, std::uint32_t{999});
  EXPECT_THROW((void)view_model_blob(blob), std::runtime_error);
}

TEST(ModelBlob, EndiannessGuardNamesForeignByteOrder) {
  std::vector<std::byte> blob;
  append_model_blob(blob, make_one_class(24));
  // A byte-swapped guard is what a foreign-endian writer would produce.
  patch(blob, 12, std::uint32_t{0x04030201});
  try {
    (void)view_model_blob(blob);
    FAIL() << "foreign-endian blob accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("endian"), std::string::npos);
  }
}

TEST(ModelBlob, RejectsTruncation) {
  std::vector<std::byte> blob;
  append_model_blob(blob, make_one_class(25));
  // Every strictly shorter 8-aligned prefix must be rejected, never read
  // out of bounds.
  for (std::size_t size = 0; size < blob.size(); size += 8) {
    EXPECT_THROW((void)view_model_blob(std::span{blob}.first(size)),
                 std::runtime_error)
        << "prefix of " << size << " bytes accepted";
  }
}

TEST(ModelBlob, RejectsUnknownModelAndKernelTypes) {
  std::vector<std::byte> blob;
  append_model_blob(blob, make_one_class(26));
  auto bad_model = blob;
  patch(bad_model, 16, std::uint32_t{7});
  EXPECT_THROW((void)view_model_blob(bad_model), std::runtime_error);
  auto bad_kernel = blob;
  patch(bad_kernel, 20, std::uint32_t{42});
  EXPECT_THROW((void)view_model_blob(bad_kernel), std::runtime_error);
  auto bad_format = blob;
  patch(bad_format, 44, std::uint32_t{1});  // quantized formats are reserved
  EXPECT_THROW((void)view_model_blob(bad_format), std::runtime_error);
}

TEST(ModelBlob, RejectsCorruptGeometry) {
  std::vector<std::byte> blob;
  append_model_blob(blob, make_one_class(27));
  auto huge_count = blob;
  patch(huge_count, 64, std::uint64_t{1} << 40);  // sv_count
  EXPECT_THROW((void)view_model_blob(huge_count), std::runtime_error);
  auto zero_count = blob;
  patch(zero_count, 64, std::uint64_t{0});
  EXPECT_THROW((void)view_model_blob(zero_count), std::runtime_error);
  auto bad_size = blob;
  patch(bad_size, 88, std::uint64_t{blob.size() + 8});  // blob_size
  EXPECT_THROW((void)view_model_blob(bad_size), std::runtime_error);
  auto bad_offsets = blob;
  patch(bad_offsets, 96, std::uint64_t{5});  // row_offsets[0] != 0
  EXPECT_THROW((void)view_model_blob(bad_offsets), std::runtime_error);
}

TEST(ModelBlob, RejectsCountsWhoseSizesWrap) {
  // A 128-byte v1 blob whose sv_count makes every per-row section size wrap
  // size_t: (2^61 + 2) * 8 and (2^61 + 1) * 8 add up to exactly 128 bytes,
  // so blob_size agrees with the wrapped layout.
  std::vector<std::byte> blob(128);
  std::memcpy(blob.data(), "WTPSVMB1", 8);
  patch(blob, 8, std::uint32_t{1});            // version
  patch(blob, 12, std::uint32_t{0x01020304});  // endianness guard
  patch(blob, 64, (std::uint64_t{1} << 61) + 1);  // sv_count
  patch(blob, 72, std::uint64_t{0});              // nnz
  patch(blob, 80, std::uint64_t{1});              // cols
  patch(blob, 88, std::uint64_t{128});            // blob_size
  EXPECT_THROW((void)view_model_blob(blob), std::runtime_error);

  // The same wrap through nnz and through cols on a real blob.
  std::vector<std::byte> real;
  append_model_blob(real, make_one_class(30));
  std::uint64_t nnz = 0;
  std::memcpy(&nnz, real.data() + 72, sizeof nnz);
  auto wrapped_nnz = real;
  patch(wrapped_nnz, 72, nnz + (std::uint64_t{1} << 62));
  EXPECT_THROW((void)view_model_blob(wrapped_nnz), std::runtime_error);
  auto wide = real;
  patch(wide, 80, (std::uint64_t{1} << 32) + 1);  // cols past u32 indices
  EXPECT_THROW((void)view_model_blob(wide), std::runtime_error);
}

TEST(ModelBlob, RejectsOutOfRangeColumnIndex) {
  const auto model = make_one_class(28);
  std::vector<std::byte> blob;
  append_model_blob(blob, model);
  // First column index lives right after row_offsets[sv_count + 1].
  const std::size_t indices_off = 96 + (model.support_vectors().rows() + 1) * 8;
  patch(blob, indices_off, std::uint32_t{1u << 30});
  EXPECT_THROW((void)view_model_blob(blob), std::runtime_error);
}

TEST(ModelBlob, RejectsUnsortedRowAndNamesIt) {
  const auto model = make_one_class(29);
  const auto& svs = model.support_vectors();
  std::size_t row = 0;
  while (row < svs.rows() && svs.row_nnz(row) < 2) ++row;
  ASSERT_LT(row, svs.rows()) << "no support vector with two entries";
  std::vector<std::byte> blob;
  append_model_blob(blob, model);
  const std::size_t indices_off = 96 + (svs.rows() + 1) * 8;
  const std::size_t first = indices_off + svs.view().row_offsets[row] * 4;
  // Swap the row's first two column indices: descending.
  const std::uint32_t a = svs.row_indices(row)[0];
  const std::uint32_t b = svs.row_indices(row)[1];
  auto descending = blob;
  patch(descending, first, b);
  patch(descending, first + 4, a);
  // Repeat the first index: a duplicate.
  auto duplicate = blob;
  patch(duplicate, first + 4, a);
  for (const auto* bad : {&descending, &duplicate}) {
    try {
      (void)view_model_blob(*bad);
      FAIL() << "unsorted row accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find("row " + std::to_string(row)),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace wtp::svm
