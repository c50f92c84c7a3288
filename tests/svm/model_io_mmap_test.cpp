// Binary blob plane (the mmap path): header validation, corruption
// rejection for both layouts (v1 CSR rows, v3 bitset rows), and the
// bit-identity contract — a blob-viewed model must score exactly like the
// heap model it was serialized from, and a materialized round trip must be
// bit-identical too.
#include "svm/model_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "svm/svm_test_util.h"
#include "util/rng.h"

namespace wtp::svm {
namespace {

using testing::decide;

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

SvmModel make_one_class(std::uint64_t seed) {
  SvmConfig config;
  config.regularizer = 0.25;
  config.kernel = {KernelType::kRbf, 0.6, 0.0, 3};
  return SvmModel::train(
      SvmKind::kOcSvm, util::FeatureMatrix::from_rows(training_blob(seed)), config, 7);
}

SvmModel make_svdd(std::uint64_t seed) {
  SvmConfig config;
  config.regularizer = 0.2;
  config.kernel = {KernelType::kPolynomial, 0.3, 1.0, 4};
  return SvmModel::train(
      SvmKind::kSvdd, util::FeatureMatrix::from_rows(training_blob(seed)), config, 7);
}

/// Rows over 20 columns of random values: more than BitsetStorage's 16
/// numeric columns, so the blob holds CSR rows (v1).
SvmModel make_csr_one_class(std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<util::SparseVector> points;
  for (int i = 0; i < 40; ++i) {
    std::vector<double> dense(20, 0.0);
    for (int k = 0; k < 12; ++k) dense[rng.uniform_index(20)] = rng.uniform(0.1, 0.9);
    points.push_back(util::SparseVector::from_dense(dense));
  }
  SvmConfig config;
  config.regularizer = 0.25;
  config.kernel = {KernelType::kRbf, 0.3, 0.0, 3};
  return SvmModel::train(
      SvmKind::kOcSvm, util::FeatureMatrix::from_rows(points), config, 20);
}

/// The paper's row shape over 100 columns: numeric values at columns 2, 3
/// and 70, exact 1.0 at a few binary columns — a v3 blob with two words per
/// row and three numeric columns, one of them outside word 0.
constexpr std::uint32_t kMixedNumeric[] = {2, 3, 70};

std::vector<util::SparseVector> mixed_rows(std::uint64_t seed, int count) {
  util::Rng rng{seed};
  std::vector<util::SparseVector> points;
  for (int i = 0; i < count; ++i) {
    std::vector<double> dense(100, 0.0);
    for (int k = 0; k < 6; ++k) dense[rng.uniform_index(100)] = 1.0;
    for (const std::uint32_t col : kMixedNumeric) {
      dense[col] = rng.uniform() < 0.8 ? rng.uniform(0.5, 3.0) : 0.0;
    }
    points.push_back(util::SparseVector::from_dense(dense));
  }
  return points;
}

SvmModel make_bitset_one_class(std::uint64_t seed) {
  SvmConfig config;
  config.regularizer = 0.3;
  config.kernel = {KernelType::kRbf, 0.2, 0.0, 3};
  return SvmModel::train(SvmKind::kOcSvm,
                         util::FeatureMatrix::from_rows(mixed_rows(seed, 40)),
                         config, 100);
}

/// Section offsets of a v3 blob, read back from its header.
struct BitsetSections {
  std::size_t sv_count;
  std::size_t words_per_row;
  std::size_t numeric_count;
  std::size_t numeric_cols;
  std::size_t words;
  std::size_t numeric_values;
};

BitsetSections bitset_sections(const std::vector<std::byte>& blob) {
  std::uint32_t version = 0;
  std::uint64_t sv_count = 0;
  std::uint64_t cols = 0;
  std::uint64_t numeric_count = 0;
  std::memcpy(&version, blob.data() + 8, sizeof version);
  std::memcpy(&sv_count, blob.data() + 64, sizeof sv_count);
  std::memcpy(&cols, blob.data() + 80, sizeof cols);
  std::memcpy(&numeric_count, blob.data() + 96, sizeof numeric_count);
  EXPECT_EQ(version, 3u);
  BitsetSections s{};
  s.sv_count = sv_count;
  s.words_per_row = (cols + 63) / 64;
  s.numeric_count = numeric_count;
  s.numeric_cols = 104;
  const std::size_t sq_norms = (104 + 4 * numeric_count + 7) / 8 * 8;
  s.words = sq_norms + 16 * sv_count;  // past sq_norms and coefficients
  s.numeric_values = s.words + 8 * sv_count * s.words_per_row;
  return s;
}

template <typename Field>
Field read_field(const std::vector<std::byte>& blob, std::size_t offset) {
  Field value;
  std::memcpy(&value, blob.data() + offset, sizeof value);
  return value;
}

/// Expects `blob` refused with a message naming a blob offset.
void expect_refused(const std::vector<std::byte>& blob, const std::string& what) {
  try {
    (void)view_model_blob(blob);
    ADD_FAILURE() << what << ": accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("blob offset "), std::string::npos)
        << what << ": " << e.what();
  }
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
  EXPECT_EQ(view.kind, SvmKind::kOcSvm);
  EXPECT_EQ(view.kernel, model.kernel());
  EXPECT_EQ(view.scalar0, model.scalar0());
  EXPECT_EQ(view.sv_count(), model.support_vectors().rows());
  for (const auto& x : probes(12)) {
    // EXPECT_EQ, not DOUBLE_EQ: the contract is bit-identity, not closeness.
    ASSERT_EQ(view.decision_value(KernelQueries::row(x, x.squared_norm())),
              decide(model, x));
  }
}

TEST(ModelBlob, SvddViewIsBitIdentical) {
  const auto model = make_svdd(13);
  std::vector<std::byte> blob;
  append_model_blob(blob, model);

  const ModelView view = view_model_blob(blob);
  EXPECT_EQ(view.kind, SvmKind::kSvdd);
  EXPECT_EQ(view.scalar0, model.scalar0());
  EXPECT_EQ(view.scalar1, model.scalar1());
  for (const auto& x : probes(14)) {
    ASSERT_EQ(view.decision_value(KernelQueries::row(x, x.squared_norm())),
              decide(model, x));
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
  const SvmModel round_trip = materialize(view_model_blob(*blob), blob);
  ASSERT_EQ(round_trip.kind(), SvmKind::kSvdd);
  EXPECT_EQ(round_trip.scalar0(), model.scalar0());
  EXPECT_EQ(round_trip.scalar1(), model.scalar1());
  for (const auto& x : probes(18)) {
    ASSERT_EQ(decide(round_trip, x), decide(model, x));
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
            decide(first, x));
  EXPECT_EQ(v2.decision_value(KernelQueries::row(x, x.squared_norm())),
            decide(second, x));
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
  append_model_blob(blob, make_csr_one_class(27));
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

  // The same wrap through nnz and through cols on a real v1 blob.  nnz +
  // 2^62 wraps the indices and values sizes back to the stored ones, and
  // the last row offset moves with it, so only the nnz bound keeps the
  // index checks from reading past the blob.
  std::vector<std::byte> real;
  append_model_blob(real, make_csr_one_class(30));
  ASSERT_EQ(read_field<std::uint32_t>(real, 8), 1u);  // version
  const auto sv_count = read_field<std::uint64_t>(real, 64);
  const std::uint64_t wrapped = read_field<std::uint64_t>(real, 72) +
                                (std::uint64_t{1} << 62);
  auto wrapped_nnz = real;
  patch(wrapped_nnz, 72, wrapped);
  patch(wrapped_nnz, 96 + 8 * sv_count, wrapped);  // row_offsets[sv_count]
  EXPECT_THROW((void)view_model_blob(wrapped_nnz), std::runtime_error);
  auto wide = real;
  patch(wide, 80, (std::uint64_t{1} << 32) + 1);  // cols past u32 indices
  EXPECT_THROW((void)view_model_blob(wide), std::runtime_error);
}

TEST(ModelBlob, RejectsOutOfRangeColumnIndex) {
  const auto model = make_csr_one_class(28);
  std::vector<std::byte> blob;
  append_model_blob(blob, model);
  // First column index lives right after row_offsets[sv_count + 1].
  const std::size_t indices_off = 96 + (model.support_vectors().rows() + 1) * 8;
  patch(blob, indices_off, std::uint32_t{1u << 30});
  EXPECT_THROW((void)view_model_blob(blob), std::runtime_error);
}

TEST(ModelBlob, RejectsUnsortedRowAndNamesIt) {
  const auto model = make_csr_one_class(29);
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

/// A bitset-representable block is stored once, as its bitset: the view
/// carries no CSR rows, its decoded rows are the model's rows, and every
/// decision is the heap model's, on the stored blob and after a
/// materialized round trip.
/// A hinted v3 blob keeps the hint's numeric columns even where the SV
/// rows hold nothing but 1.0 (a window mean that is 0 or 1 in every SV), so
/// a query with a fraction there still encodes against it.  Rows that break
/// the hint fall back to the detected layout.  Decisions match the heap
/// model either way.
TEST(ModelBlob, BitsetBlobTakesHintedLayoutWhenRowsConform) {
  const auto model = make_bitset_one_class(38);
  const std::uint32_t hint[] = {2, 3, 50, 70};  // 50: no stored value but 1.0
  std::vector<std::byte> hinted;
  append_model_blob(hinted, model, hint);
  std::vector<std::byte> detected;
  append_model_blob(detected, model);
  const BitsetSections h = bitset_sections(hinted);
  ASSERT_EQ(h.numeric_count, 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(read_field<std::uint32_t>(hinted, h.numeric_cols + 4 * k), hint[k]);
  }
  EXPECT_EQ(bitset_sections(detected).numeric_count, 3u);
  const std::uint32_t broken[] = {2, 70};  // column 3 holds fractions
  std::vector<std::byte> fallback;
  append_model_blob(fallback, model, broken);
  EXPECT_EQ(fallback, detected);

  std::vector<double> dense(100, 0.0);
  dense[2] = 1.5;
  dense[17] = 1.0;
  dense[50] = 0.4;
  const auto query = util::SparseVector::from_dense(dense);
  const ModelView hinted_view = view_model_blob(hinted);
  const ModelView detected_view = view_model_blob(detected);
  const auto query_row = util::FeatureMatrix::from_rows(std::span{&query, 1});
  util::BitsetQuery encoded;
  EXPECT_TRUE(encoded.encode(*hinted_view.support_vectors.bitset,
                             query_row.row_indices(0), query_row.row_values(0)));
  EXPECT_FALSE(encoded.encode(*detected_view.support_vectors.bitset,
                              query_row.row_indices(0), query_row.row_values(0)));
  auto queries = mixed_rows(39, 20);
  queries.push_back(query);
  for (const auto& x : queries) {
    const double expected = decide(model, x);
    const auto row = KernelQueries::row(x, x.squared_norm());
    ASSERT_EQ(hinted_view.decision_value(row), expected);
    ASSERT_EQ(detected_view.decision_value(row), expected);
  }
}

TEST(ModelBlob, BitsetBlobStoresRowsOnce) {
  const auto model = make_bitset_one_class(31);
  const auto& svs = model.support_vectors();
  auto blob = std::make_shared<std::vector<std::byte>>();
  append_model_blob(*blob, model);
  const BitsetSections s = bitset_sections(*blob);
  EXPECT_EQ(s.sv_count, svs.rows());
  EXPECT_EQ(s.words_per_row, 2u);
  ASSERT_EQ(s.numeric_count, 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(read_field<std::uint32_t>(*blob, s.numeric_cols + 4 * k),
              kMixedNumeric[k]);
  }
  EXPECT_EQ(blob->size(), s.numeric_values + 8 * s.sv_count * s.numeric_count);
  EXPECT_EQ(read_field<std::uint64_t>(*blob, 72), 0u);  // nnz: unused in v3

  const ModelView view = view_model_blob(*blob);
  EXPECT_FALSE(view.support_vectors.has_rows());
  ASSERT_TRUE(view.support_vectors.bitset);
  EXPECT_EQ(view.sv_count(), svs.rows());
  util::DecodedRows decoded;
  decoded.decode(*view.support_vectors.bitset);
  const util::CsrView rows = decoded.view(svs.cols(), view.support_vectors.csr.sq_norms);
  for (std::size_t r = 0; r < svs.rows(); ++r) {
    ASSERT_TRUE(std::ranges::equal(rows.row_indices(r), svs.row_indices(r))) << r;
    ASSERT_TRUE(std::ranges::equal(rows.row_values(r), svs.row_values(r))) << r;
    ASSERT_EQ(rows.sq_norm(r), svs.sq_norm(r)) << r;
  }

  const SvmModel round_trip = materialize(view, blob);
  EXPECT_TRUE(round_trip.support_vectors().bitset_stored());
  for (const auto& x : mixed_rows(32, 30)) {
    const double expected = decide(model, x);
    ASSERT_EQ(view.decision_value(KernelQueries::row(x, x.squared_norm())),
              expected);
    ASSERT_EQ(decide(round_trip, x), expected);
  }
  EXPECT_EQ(round_trip.support_vectors(), svs);  // decodes: the rows round-trip
}

TEST(ModelBlob, RejectsVersion2) {
  std::vector<std::byte> blob;
  append_model_blob(blob, make_bitset_one_class(33));
  patch(blob, 8, std::uint32_t{2});
  try {
    (void)view_model_blob(blob);
    FAIL() << "version 2 blob accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("version 2"), std::string::npos)
        << e.what();
  }
}

TEST(ModelBlob, RejectsSetBitPastCols) {
  std::vector<std::byte> blob;
  append_model_blob(blob, make_bitset_one_class(34));
  const BitsetSections s = bitset_sections(blob);
  // cols is 100: bits 36..63 of each row's second word lie past it.
  const std::size_t last_word = s.words + 8 * (s.words_per_row - 1);
  for (const int bit : {36, 63}) {
    auto bad = blob;
    patch(bad, last_word, read_field<std::uint64_t>(blob, last_word) |
                              (std::uint64_t{1} << bit));
    expect_refused(bad, "bit " + std::to_string(bit) + " of word 1");
  }
}

TEST(ModelBlob, RejectsBitAtNumericColumn) {
  std::vector<std::byte> blob;
  append_model_blob(blob, make_bitset_one_class(35));
  const BitsetSections s = bitset_sections(blob);
  const std::size_t row = s.sv_count - 1;
  for (const std::uint32_t col : kMixedNumeric) {
    auto bad = blob;
    const std::size_t word = s.words + 8 * (row * s.words_per_row + col / 64);
    patch(bad, word, read_field<std::uint64_t>(blob, word) |
                         (std::uint64_t{1} << (col % 64)));
    expect_refused(bad, "bit at numeric column " + std::to_string(col));
  }
}

TEST(ModelBlob, RejectsNonFiniteNumericValue) {
  std::vector<std::byte> blob;
  append_model_blob(blob, make_bitset_one_class(36));
  const BitsetSections s = bitset_sections(blob);
  const std::size_t last = s.numeric_values + 8 * (s.sv_count * s.numeric_count - 1);
  for (const double value : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
    auto bad = blob;
    patch(bad, last, value);
    expect_refused(bad, "numeric value " + std::to_string(value));
  }
}

TEST(ModelBlob, RejectsNumericColumnsNotAscendingOrPastCols) {
  std::vector<std::byte> blob;
  append_model_blob(blob, make_bitset_one_class(37));
  const BitsetSections s = bitset_sections(blob);
  auto repeated = blob;  // {2, 2, 70}
  patch(repeated, s.numeric_cols + 4, std::uint32_t{2});
  expect_refused(repeated, "repeated numeric column");
  auto descending = blob;  // {2, 3, 1}
  patch(descending, s.numeric_cols + 8, std::uint32_t{1});
  expect_refused(descending, "descending numeric columns");
  for (const std::uint32_t col : {100u, 101u, 0xffffffffu}) {
    auto past = blob;
    patch(past, s.numeric_cols + 8, col);
    expect_refused(past, "numeric column " + std::to_string(col));
  }
}

}  // namespace
}  // namespace wtp::svm
