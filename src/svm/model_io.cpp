#include "svm/model_io.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>

namespace wtp::svm {

namespace {

constexpr char kBlobMagic[8] = {'W', 'T', 'P', 'S', 'V', 'M', 'B', '1'};
/// CSR rows: the blocks util::BitsetStorage::build refuses.
constexpr std::uint32_t kBlobVersionCsr = 1;
/// Bitset rows, stored once.  Version 2 stored a bitset-representable block
/// twice, as CSR rows plus the bitset; it is refused.
constexpr std::uint32_t kBlobVersionBitset = 3;
constexpr std::uint32_t kBlobVersionRetired = 2;
constexpr std::uint32_t kEndianGuard = 0x01020304u;

// CsrView row_offsets are std::size_t spans; the on-disk format stores u64.
// Viewing the stored array in place requires the two to be the same type.
static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
              "blob format requires 64-bit size_t");

struct BlobHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t endian;
  std::uint32_t model_type;
  std::uint32_t kernel_type;
  double gamma;
  double coef0;
  std::int32_t degree;
  std::uint32_t value_format;
  double scalar0;
  double scalar1;
  std::uint64_t sv_count;
  std::uint64_t nnz;
  std::uint64_t cols;
  std::uint64_t blob_size;
};
static_assert(sizeof(BlobHeader) == 96, "blob header layout drifted");
// The header's model type is the SvmKind value: stored bytes follow from the
// enum alone.
static_assert(static_cast<std::uint32_t>(SvmKind::kOcSvm) == 0 &&
              static_cast<std::uint32_t>(SvmKind::kSvdd) == 1);
static_assert(offsetof(BlobHeader, gamma) == 24);
static_assert(offsetof(BlobHeader, scalar0) == 48);
static_assert(offsetof(BlobHeader, sv_count) == 64);
static_assert(offsetof(BlobHeader, blob_size) == 88);

constexpr std::size_t align8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

/// Indices per pass of view_model_blob's descent count: small enough for a
/// 32-bit counter, large enough that one pass covers a typical blob.
constexpr std::size_t kDescentChunk = std::size_t{1} << 20;

/// Section offsets of a v1 blob (relative to the blob start).
struct CsrLayout {
  std::size_t row_offsets = 0;
  std::size_t indices = 0;
  std::size_t values = 0;
  std::size_t sq_norms = 0;
  std::size_t coefficients = 0;
  std::size_t total = 0;
};

CsrLayout csr_layout(std::uint64_t sv_count, std::uint64_t nnz) {
  CsrLayout l;
  l.row_offsets = sizeof(BlobHeader);
  l.indices = l.row_offsets + (sv_count + 1) * sizeof(std::uint64_t);
  l.values = align8(l.indices + nnz * sizeof(std::uint32_t));
  l.sq_norms = l.values + nnz * sizeof(double);
  l.coefficients = l.sq_norms + sv_count * sizeof(double);
  l.total = l.coefficients + sv_count * sizeof(double);
  return l;
}

/// Section offsets of a v3 blob (relative to the blob start).
struct BitsetLayout {
  std::size_t numeric_count = 0;   ///< u64
  std::size_t numeric_cols = 0;    ///< u32[numeric_count], padded to 8
  std::size_t sq_norms = 0;
  std::size_t coefficients = 0;
  std::size_t words = 0;           ///< u64[sv_count * words_per_row]
  std::size_t numeric_values = 0;  ///< f64[sv_count * numeric_count]
  std::size_t total = 0;
};

BitsetLayout bitset_layout(std::uint64_t sv_count, std::uint64_t words_per_row,
                           std::uint64_t numeric_count) {
  BitsetLayout l;
  l.numeric_count = sizeof(BlobHeader);
  l.numeric_cols = l.numeric_count + sizeof(std::uint64_t);
  l.sq_norms = align8(l.numeric_cols + numeric_count * sizeof(std::uint32_t));
  l.coefficients = l.sq_norms + sv_count * sizeof(double);
  l.words = l.coefficients + sv_count * sizeof(double);
  l.numeric_values = l.words + sv_count * words_per_row * sizeof(std::uint64_t);
  l.total = l.numeric_values + sv_count * numeric_count * sizeof(double);
  return l;
}

/// The SV rows' bitset for a v3 blob: in the `numeric_cols` layout when the
/// rows conform to it, else in the layout BitsetStorage::build detects;
/// nullopt when neither represents them.  A bitset in a given layout follows
/// from the rows alone, so the matrix's cached one (a trained model's SV
/// block carries its training matrix's layout on every backend, a
/// materialized one its stored block) is serialized as it is when its
/// layout is the hint; it is built from the rows otherwise.
std::optional<util::BitsetView> blob_bitset(
    const util::FeatureMatrix& svs, std::span<const std::uint32_t> numeric_cols,
    std::optional<util::BitsetStorage>& built) {
  if (!numeric_cols.empty()) {
    const std::optional<util::BitsetView> cached = svs.bitset();
    if (cached && std::ranges::equal(cached->numeric_cols, numeric_cols)) {
      return cached;
    }
    built = util::BitsetStorage::build(svs.view(), numeric_cols);
  }
  if (!built) built = util::BitsetStorage::build(svs.view());
  if (!built) return std::nullopt;
  return built->view();
}

void append_bytes(std::vector<std::byte>& out, const void* data, std::size_t size) {
  if (size == 0) return;
  const auto* bytes = static_cast<const std::byte*>(data);
  out.insert(out.end(), bytes, bytes + size);
}

void pad_to_8(std::vector<std::byte>& out, std::size_t start) {
  while ((out.size() - start) % 8 != 0) out.push_back(std::byte{0});
}

}  // namespace

std::size_t append_model_blob(std::vector<std::byte>& out, const SvmModel& model,
                              std::span<const std::uint32_t> numeric_cols) {
  const util::FeatureMatrix& svs = model.support_vectors();
  const std::span<const double> coefficients = model.coefficients();
  const KernelParams& kernel = model.kernel();
  pad_to_8(out, 0);
  const std::size_t start = out.size();
  std::optional<util::BitsetStorage> built;
  const std::optional<util::BitsetView> bitset =
      blob_bitset(svs, numeric_cols, built);

  BlobHeader header{};
  std::memcpy(header.magic, kBlobMagic, sizeof(kBlobMagic));
  header.version = bitset ? kBlobVersionBitset : kBlobVersionCsr;
  header.endian = kEndianGuard;
  header.model_type = static_cast<std::uint32_t>(model.kind());
  header.kernel_type = static_cast<std::uint32_t>(kernel.type);
  header.gamma = kernel.gamma;
  header.coef0 = kernel.coef0;
  header.degree = kernel.degree;
  header.value_format = 0;
  header.scalar0 = model.scalar0();
  header.scalar1 = model.scalar1();
  header.sv_count = svs.rows();
  header.cols = svs.cols();

  if (bitset) {
    const util::BitsetView& bits = *bitset;
    const std::uint64_t numeric_count = bits.numeric_cols.size();
    header.blob_size =
        bitset_layout(header.sv_count, bits.words_per_row, numeric_count).total;
    out.reserve(start + header.blob_size);
    append_bytes(out, &header, sizeof(header));
    append_bytes(out, &numeric_count, sizeof(numeric_count));
    append_bytes(out, bits.numeric_cols.data(),
                 bits.numeric_cols.size() * sizeof(std::uint32_t));
    pad_to_8(out, start);
    append_bytes(out, svs.sq_norms().data(), svs.sq_norms().size() * sizeof(double));
    append_bytes(out, coefficients.data(), coefficients.size() * sizeof(double));
    append_bytes(out, bits.words.data(), bits.words.size() * sizeof(std::uint64_t));
    append_bytes(out, bits.numeric_values.data(),
                 bits.numeric_values.size() * sizeof(double));
  } else {
    const util::CsrView view = svs.view();
    header.nnz = view.nnz();
    header.blob_size = csr_layout(header.sv_count, header.nnz).total;
    out.reserve(start + header.blob_size);
    append_bytes(out, &header, sizeof(header));
    append_bytes(out, view.row_offsets.data(),
                 view.row_offsets.size() * sizeof(std::uint64_t));
    append_bytes(out, view.indices.data(),
                 view.indices.size() * sizeof(std::uint32_t));
    pad_to_8(out, start);
    append_bytes(out, view.values.data(), view.values.size() * sizeof(double));
    append_bytes(out, view.sq_norms.data(), view.sq_norms.size() * sizeof(double));
    append_bytes(out, coefficients.data(), coefficients.size() * sizeof(double));
  }
  if (out.size() - start != header.blob_size) {
    throw std::logic_error{"append_model_blob: layout mismatch"};
  }
  return start;
}

namespace {

/// Every refusal names the offset, within the blob, of the field at fault.
[[noreturn]] void blob_error(const std::string& what, std::size_t offset) {
  throw std::runtime_error{"view_model_blob: " + what + " (blob offset " +
                           std::to_string(offset) + ")"};
}

/// Refuses `count` past `limit`: the bytes present bound every count, by
/// division, before any offset is computed from it, so no layout sum or
/// product wraps size_t.
void check_count(std::uint64_t count, std::uint64_t limit, const char* what,
                 std::size_t offset) {
  if (count > limit) {
    blob_error(std::string{what} + " " + std::to_string(count) +
                   " exceeds what the blob can hold",
               offset);
  }
}

/// The validated sections of one blob.
struct BlobRows {
  KernelMatrix rows;
  std::span<const double> coefficients;
};

void check_blob_size(const BlobHeader& header, std::span<const std::byte> blob,
                     std::size_t total) {
  if (header.blob_size != total) {
    blob_error("header blob_size " + std::to_string(header.blob_size) +
                   " does not match layout size " + std::to_string(total),
               offsetof(BlobHeader, blob_size));
  }
  if (blob.size() < total) {
    blob_error("truncated: " + std::to_string(blob.size()) + " bytes < " +
                   std::to_string(total) + " expected",
               blob.size());
  }
}

/// view_csr_rows' row checks: monotone offsets ending at nnz, strictly
/// ascending indices within each row, all below cols.
void check_csr_rows(const BlobHeader& header, const CsrLayout& layout,
                    const std::size_t* row_offsets,
                    const std::uint32_t* indices) {
  const auto offset_at = [&layout](std::size_t i) {
    return layout.row_offsets + i * sizeof(std::uint64_t);
  };
  const auto index_at = [&layout](std::size_t k) {
    return layout.indices + k * sizeof(std::uint32_t);
  };

  if (row_offsets[0] != 0) blob_error("row_offsets[0] != 0", offset_at(0));
  for (std::size_t i = 0; i < header.sv_count; ++i) {
    if (row_offsets[i + 1] < row_offsets[i]) {
      blob_error("row_offsets not monotone at row " + std::to_string(i),
                 offset_at(i + 1));
    }
  }
  if (row_offsets[header.sv_count] != header.nnz) {
    blob_error("row_offsets end " + std::to_string(row_offsets[header.sv_count]) +
                   " != nnz " + std::to_string(header.nnz),
               offset_at(header.sv_count));
  }
  // A mapped store validates each blob at its first use, on the scoring
  // path, so the per-index work is one branch-free count of descents over
  // the whole array, which vectorizes.  The step into a non-empty row from
  // the row before it may descend, so those steps are taken back out.  Only
  // a failing blob is scanned row by row, to name the row.
  std::size_t descents = 0;
  for (std::size_t begin = 1; begin < header.nnz; begin += kDescentChunk) {
    const std::size_t end = std::min<std::size_t>(header.nnz, begin + kDescentChunk);
    std::uint32_t chunk = 0;  // 32-bit lanes keep the loop vectorized
    for (std::size_t k = begin; k < end; ++k) {
      chunk += indices[k] <= indices[k - 1];
    }
    descents += chunk;
  }
  std::uint32_t max_last = 0;
  for (std::size_t i = 0; i < header.sv_count; ++i) {
    const std::size_t begin = row_offsets[i];
    const std::size_t end = row_offsets[i + 1];
    if (begin == end) continue;
    if (begin > 0) descents -= indices[begin] <= indices[begin - 1];
    max_last = std::max(max_last, indices[end - 1]);
  }
  if (descents != 0) {
    for (std::size_t i = 0; i < header.sv_count; ++i) {
      for (std::size_t k = row_offsets[i] + 1; k < row_offsets[i + 1]; ++k) {
        if (indices[k] <= indices[k - 1]) {
          blob_error("column indices of row " + std::to_string(i) +
                         " not strictly ascending",
                     index_at(k));
        }
      }
    }
  }
  if (header.nnz > 0 && max_last >= header.cols) {
    std::size_t k = 0;
    while (indices[k] != max_last) ++k;
    blob_error("column index " + std::to_string(max_last) + " >= cols " +
                   std::to_string(header.cols),
               index_at(k));
  }
}

/// v1: CSR rows.  They must meet FeatureMatrix's row rule, strictly
/// ascending column indices, since materialize() adopts these arrays as they
/// are; an ascending row is in bounds when its last index is.  Without
/// `check` the sections are only located (a blob checked before).
BlobRows view_csr_rows(const BlobHeader& header, std::span<const std::byte> blob,
                       bool check) {
  if (check) {
    // An SV row costs at least 24 bytes (offset, norm, coefficient) and a
    // nonzero 12 (index, value).
    const std::size_t body = blob.size() - sizeof(BlobHeader);
    check_count(header.sv_count, body / 24, "sv_count",
                offsetof(BlobHeader, sv_count));
    check_count(header.nnz, body / 12, "nnz", offsetof(BlobHeader, nnz));
  }
  const CsrLayout layout = csr_layout(header.sv_count, header.nnz);
  if (check) check_blob_size(header, blob, layout.total);

  const auto* base = blob.data();
  const auto* row_offsets =
      reinterpret_cast<const std::size_t*>(base + layout.row_offsets);
  const auto* indices =
      reinterpret_cast<const std::uint32_t*>(base + layout.indices);
  if (check) check_csr_rows(header, layout, row_offsets, indices);
  const auto* sq_norms = reinterpret_cast<const double*>(base + layout.sq_norms);
  return {KernelMatrix{util::CsrView{
                           header.cols,
                           {indices, header.nnz},
                           {reinterpret_cast<const double*>(base + layout.values),
                            header.nnz},
                           {row_offsets, header.sv_count + 1},
                           {sq_norms, header.sv_count}},
                       std::nullopt},
          {reinterpret_cast<const double*>(base + layout.coefficients),
           header.sv_count}};
}

/// v3: bitset rows.  view_bitset_rows checks them so that
/// util::DecodedRows yields proper CSR rows: no bit at or past cols or at a
/// numeric column, numeric columns strictly ascending below cols, and
/// finite numeric values.  nnz is 0: the entries follow from the words.
/// This is the check of the sections after the header fields.
void check_bitset_rows(const BlobHeader& header, const BitsetLayout& layout,
                       const util::BitsetView& bits) {
  const std::size_t words_per_row = bits.words_per_row;
  const std::size_t numeric_count = bits.numeric_cols.size();
  const std::span<const std::uint32_t> numeric_cols = bits.numeric_cols;
  for (std::size_t k = 0; k < numeric_count; ++k) {
    const std::size_t at = layout.numeric_cols + k * sizeof(std::uint32_t);
    if (numeric_cols[k] >= header.cols) {
      blob_error("numeric column " + std::to_string(numeric_cols[k]) +
                     " >= cols " + std::to_string(header.cols),
                 at);
    }
    if (k > 0 && numeric_cols[k] <= numeric_cols[k - 1]) {
      blob_error("numeric columns not strictly ascending", at);
    }
  }
  // Bits no row may set: those past cols in the last word and those at a
  // numeric column.  One OR over every word finds any; only a failing blob
  // is walked again, to name the word.
  std::array<std::uint64_t, util::BitsetStorage::kMaxWordsPerRow> forbidden;
  std::fill_n(forbidden.begin(), words_per_row, std::uint64_t{0});
  if (header.cols % 64 != 0) {
    forbidden[words_per_row - 1] = ~std::uint64_t{0} << (header.cols % 64);
  }
  for (std::size_t k = 0; k < numeric_count; ++k) {
    forbidden[numeric_cols[k] / 64] |= std::uint64_t{1} << (numeric_cols[k] % 64);
  }
  std::uint64_t stray = 0;
  for (std::size_t r = 0; r < header.sv_count; ++r) {
    const std::uint64_t* row = bits.row_words(r);
    for (std::size_t w = 0; w < words_per_row; ++w) stray |= row[w] & forbidden[w];
  }
  if (stray != 0) {
    for (std::size_t i = 0; i < bits.words.size(); ++i) {
      const std::uint64_t bad = bits.words[i] & forbidden[i % words_per_row];
      if (bad == 0) continue;
      const std::size_t col = (i % words_per_row) * 64 + std::countr_zero(bad);
      blob_error("row " + std::to_string(i / words_per_row) + " sets a bit at " +
                     (col >= header.cols ? "column " + std::to_string(col) +
                                               " >= cols " +
                                               std::to_string(header.cols)
                                         : "numeric column " + std::to_string(col)),
                 layout.words + i * sizeof(std::uint64_t));
    }
  }
  for (std::size_t i = 0; i < bits.numeric_values.size(); ++i) {
    if (!std::isfinite(bits.numeric_values[i])) {
      blob_error("non-finite numeric value in row " +
                     std::to_string(i / numeric_count),
                 layout.numeric_values + i * sizeof(double));
    }
  }
}

/// v3 rows; without `check` the sections are only located (a blob checked
/// before).
BlobRows view_bitset_rows(const BlobHeader& header,
                          std::span<const std::byte> blob, bool check) {
  constexpr std::size_t kMaxCols = 64 * util::BitsetStorage::kMaxWordsPerRow;
  if (check && header.nnz != 0) {
    blob_error("nnz " + std::to_string(header.nnz) + " in a bitset blob (want 0)",
               offsetof(BlobHeader, nnz));
  }
  if (check && (header.cols == 0 || header.cols > kMaxCols)) {
    blob_error("cols " + std::to_string(header.cols) + " outside the bitset's 1.." +
                   std::to_string(kMaxCols),
               offsetof(BlobHeader, cols));
  }
  const std::size_t words_per_row = (header.cols + 63) / 64;
  if (check) {
    // An SV row costs at least its norm, its coefficient and its words, so
    // with sv_count >= 1 the body holds the numeric column count read next.
    const std::size_t body = blob.size() - sizeof(BlobHeader);
    check_count(header.sv_count, body / (16 + 8 * words_per_row), "sv_count",
                offsetof(BlobHeader, sv_count));
  }
  std::uint64_t numeric_count = 0;
  std::memcpy(&numeric_count, blob.data() + sizeof(BlobHeader),
              sizeof(numeric_count));
  if (check && numeric_count > util::BitsetStorage::kMaxNumericColumns) {
    blob_error("numeric column count " + std::to_string(numeric_count) +
                   " exceeds " +
                   std::to_string(util::BitsetStorage::kMaxNumericColumns),
               sizeof(BlobHeader));
  }
  const BitsetLayout layout =
      bitset_layout(header.sv_count, words_per_row, numeric_count);
  if (check) check_blob_size(header, blob, layout.total);

  const auto* base = blob.data();
  const util::BitsetView bits{
      header.cols,
      header.sv_count,
      words_per_row,
      {reinterpret_cast<const std::uint64_t*>(base + layout.words),
       header.sv_count * words_per_row},
      {reinterpret_cast<const std::uint32_t*>(base + layout.numeric_cols),
       numeric_count},
      {reinterpret_cast<const double*>(base + layout.numeric_values),
       header.sv_count * numeric_count}};
  if (check) check_bitset_rows(header, layout, bits);

  const auto* sq_norms = reinterpret_cast<const double*>(base + layout.sq_norms);
  return {KernelMatrix{util::CsrView{header.cols, {}, {}, {},
                                     {sq_norms, header.sv_count}},
                       bits},
          {reinterpret_cast<const double*>(base + layout.coefficients),
           header.sv_count}};
}

/// The header of a blob, after every check that needs only the header.
BlobHeader checked_header(std::span<const std::byte> blob) {
  if (reinterpret_cast<std::uintptr_t>(blob.data()) % 8 != 0) {
    blob_error("blob is not 8-byte aligned", 0);
  }
  if (blob.size() < sizeof(BlobHeader)) {
    blob_error("truncated: " + std::to_string(blob.size()) + " bytes < " +
                   std::to_string(sizeof(BlobHeader)) + "-byte header",
               blob.size());
  }
  BlobHeader header;
  std::memcpy(&header, blob.data(), sizeof(header));
  if (std::memcmp(header.magic, kBlobMagic, sizeof(kBlobMagic)) != 0) {
    blob_error("bad magic (not a wtp svm blob)", offsetof(BlobHeader, magic));
  }
  if (header.endian != kEndianGuard) {
    if (header.endian == 0x04030201u) {
      blob_error("endianness guard mismatch: blob was written on a "
                 "foreign-endian machine",
                 offsetof(BlobHeader, endian));
    }
    blob_error("corrupt endianness guard", offsetof(BlobHeader, endian));
  }
  if (header.version == kBlobVersionRetired) {
    blob_error("version 2 (CSR rows plus a bitset companion) is no longer "
               "read; write the store again",
               offsetof(BlobHeader, version));
  }
  if (header.version != kBlobVersionCsr && header.version != kBlobVersionBitset) {
    blob_error("unsupported version " + std::to_string(header.version),
               offsetof(BlobHeader, version));
  }
  if (header.model_type > static_cast<std::uint32_t>(SvmKind::kSvdd)) {
    blob_error("unknown model type " + std::to_string(header.model_type),
               offsetof(BlobHeader, model_type));
  }
  if (header.kernel_type > static_cast<std::uint32_t>(KernelType::kSigmoid)) {
    blob_error("unknown kernel type " + std::to_string(header.kernel_type),
               offsetof(BlobHeader, kernel_type));
  }
  if (header.value_format != 0) {
    blob_error("unsupported value format " + std::to_string(header.value_format),
               offsetof(BlobHeader, value_format));
  }
  if (header.sv_count == 0) {
    blob_error("zero support vectors", offsetof(BlobHeader, sv_count));
  }
  // Column indices are u32.
  check_count(header.cols, std::uint64_t{1} << 32, "cols", offsetof(BlobHeader, cols));
  return header;
}

/// view_model_blob, and without `check` its trusted twin, which only
/// locates the sections.
ModelView view_blob(std::span<const std::byte> blob, bool check) {
  BlobHeader header;
  if (check) {
    header = checked_header(blob);
  } else {
    std::memcpy(&header, blob.data(), sizeof(header));
  }
  const BlobRows rows = header.version == kBlobVersionBitset
                            ? view_bitset_rows(header, blob, check)
                            : view_csr_rows(header, blob, check);

  ModelView view;
  view.kind = static_cast<SvmKind>(header.model_type);
  view.kernel.type = static_cast<KernelType>(header.kernel_type);
  view.kernel.gamma = header.gamma;
  view.kernel.coef0 = header.coef0;
  view.kernel.degree = header.degree;
  view.scalar0 = header.scalar0;
  view.scalar1 = header.scalar1;
  view.support_vectors = rows.rows;
  view.coefficients = rows.coefficients;
  return view;
}

}  // namespace

ModelView view_model_blob(std::span<const std::byte> blob) {
  return view_blob(blob, true);
}

ModelView view_checked_model_blob(std::span<const std::byte> blob) {
  return view_blob(blob, false);
}

double ModelView::decision_value(const KernelQueries& query,
                                 TransformMode tier) const {
  if (query.count() != 1) {
    throw std::invalid_argument{"ModelView::decision_value: " +
                                std::to_string(query.count()) +
                                " query rows, want 1"};
  }
  const auto k = kernel_row_scratch(sv_count());
  kernel_block(kernel, support_vectors, query, k, tier);
  return decision_from_kernels([k](std::size_t i) { return k[i]; },
                               query.csr().sq_norm(0));
}

void ModelView::decision_values(const util::FeatureMatrix& queries,
                                std::span<double> out,
                                TransformMode tier) const {
  const std::size_t n = sv_count();
  const std::size_t nq = queries.rows();
  constexpr std::size_t kQueryTile = 64;
  thread_local std::vector<double> block;
  if (block.size() < std::min(kQueryTile, nq) * n) {
    block.resize(std::min(kQueryTile, nq) * n);
  }
  KernelMatrix rows = kernel_matrix(queries);
  if (!rows.has_rows()) rows.csr = queries.view();  // queries are read as CSR
  for (std::size_t q0 = 0; q0 < nq; q0 += kQueryTile) {
    const std::size_t tile = std::min(kQueryTile, nq - q0);
    const std::span<double> k{block.data(), tile * n};
    kernel_block(kernel, support_vectors, KernelQueries::rows(rows, q0, tile), k,
                 tier);
    for (std::size_t t = 0; t < tile; ++t) {
      const double* row = k.data() + t * n;
      out[q0 + t] = decision_from_kernels(
          [row](std::size_t i) { return row[i]; }, queries.sq_norm(q0 + t));
    }
  }
}

ModelView view_of(const SvmModel& model) {
  ModelView view;
  view.kind = model.kind();
  view.kernel = model.kernel();
  view.scalar0 = model.scalar0();
  view.scalar1 = model.scalar1();
  view.support_vectors = kernel_matrix(model.support_vectors());
  view.coefficients = model.coefficients();
  return view;
}

SvmModel materialize(const ModelView& view, std::shared_ptr<const void> owner) {
  const KernelMatrix& svs = view.support_vectors;
  util::FeatureMatrix matrix =
      svs.has_rows()
          ? util::FeatureMatrix::borrow(svs.csr, std::move(owner))
          : util::FeatureMatrix::borrow(*svs.bitset, svs.csr.sq_norms,
                                        std::move(owner));
  return SvmModel::from_parts(
      view.kind, view.kernel, std::move(matrix),
      {view.coefficients.begin(), view.coefficients.end()}, view.scalar0,
      view.scalar1);
}

}  // namespace wtp::svm
