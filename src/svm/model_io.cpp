#include "svm/model_io.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace wtp::svm {

namespace {

constexpr char kBlobMagic[8] = {'W', 'T', 'P', 'S', 'V', 'M', 'B', '1'};
constexpr std::uint32_t kBlobVersion = 1;
/// Version 2 appends the bitset companion of the SV block (DESIGN §11)
/// after the v1 sections, so mmap'd stores score through AND+popcount
/// zero-copy.  Models whose SV blocks are not bitset-representable are
/// still written as v1; readers accept both.
constexpr std::uint32_t kBlobVersionBitset = 2;
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
static_assert(offsetof(BlobHeader, gamma) == 24);
static_assert(offsetof(BlobHeader, scalar0) == 48);
static_assert(offsetof(BlobHeader, sv_count) == 64);
static_assert(offsetof(BlobHeader, blob_size) == 88);

constexpr std::size_t align8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

/// Indices per pass of view_model_blob's descent count: small enough for a
/// 32-bit counter, large enough that one pass covers a typical blob.
constexpr std::size_t kDescentChunk = std::size_t{1} << 20;

/// Section offsets within one blob (relative to the blob start).  The
/// bitset sections exist only in v2 blobs (words_per_row > 0 there).
struct BlobLayout {
  std::size_t row_offsets = 0;
  std::size_t indices = 0;
  std::size_t values = 0;
  std::size_t sq_norms = 0;
  std::size_t coefficients = 0;
  std::size_t bitset_header = 0;  ///< u64 words_per_row, u64 numeric_count
  std::size_t numeric_cols = 0;   ///< u32[numeric_count], padded to 8
  std::size_t words = 0;          ///< u64[sv_count * words_per_row]
  std::size_t numeric_values = 0; ///< f64[sv_count * numeric_count]
  std::size_t total = 0;
};

BlobLayout blob_layout(std::uint64_t sv_count, std::uint64_t nnz,
                       std::uint64_t words_per_row = 0,
                       std::uint64_t numeric_count = 0,
                       bool has_bitset = false) {
  BlobLayout l;
  l.row_offsets = sizeof(BlobHeader);
  l.indices = l.row_offsets + (sv_count + 1) * sizeof(std::uint64_t);
  l.values = align8(l.indices + nnz * sizeof(std::uint32_t));
  l.sq_norms = l.values + nnz * sizeof(double);
  l.coefficients = l.sq_norms + sv_count * sizeof(double);
  l.total = l.coefficients + sv_count * sizeof(double);
  if (has_bitset) {
    l.bitset_header = l.total;
    l.numeric_cols = l.bitset_header + 2 * sizeof(std::uint64_t);
    l.words = align8(l.numeric_cols + numeric_count * sizeof(std::uint32_t));
    l.numeric_values = l.words + sv_count * words_per_row * sizeof(std::uint64_t);
    l.total = l.numeric_values + sv_count * numeric_count * sizeof(double);
  }
  return l;
}

void append_bytes(std::vector<std::byte>& out, const void* data, std::size_t size) {
  if (size == 0) return;
  const auto* bytes = static_cast<const std::byte*>(data);
  out.insert(out.end(), bytes, bytes + size);
}

std::size_t append_blob_impl(std::vector<std::byte>& out, std::uint32_t model_type,
                             const KernelParams& kernel, double scalar0,
                             double scalar1, const util::FeatureMatrix& svs,
                             std::span<const double> coefficients) {
  while (out.size() % 8 != 0) out.push_back(std::byte{0});
  const std::size_t start = out.size();
  // v2 when the SV block carries a bitset companion (skipped entirely when
  // the plane is disabled via WTP_KERNEL_BACKEND=csr).
  const KernelMatrix operand = kernel_matrix(svs);
  const util::CsrView& view = operand.csr;
  const bool has_bitset = operand.bitset.has_value();
  const util::BitsetView bits = operand.bitset.value_or(util::BitsetView{});
  const BlobLayout layout =
      blob_layout(view.rows(), view.nnz(), bits.words_per_row,
                  bits.numeric_cols.size(), has_bitset);

  BlobHeader header{};
  std::memcpy(header.magic, kBlobMagic, sizeof(kBlobMagic));
  header.version = has_bitset ? kBlobVersionBitset : kBlobVersion;
  header.endian = kEndianGuard;
  header.model_type = model_type;
  header.kernel_type = static_cast<std::uint32_t>(kernel.type);
  header.gamma = kernel.gamma;
  header.coef0 = kernel.coef0;
  header.degree = kernel.degree;
  header.value_format = 0;
  header.scalar0 = scalar0;
  header.scalar1 = scalar1;
  header.sv_count = view.rows();
  header.nnz = view.nnz();
  header.cols = view.cols;
  header.blob_size = layout.total;

  out.reserve(start + layout.total);
  append_bytes(out, &header, sizeof(header));
  append_bytes(out, view.row_offsets.data(),
               view.row_offsets.size() * sizeof(std::uint64_t));
  append_bytes(out, view.indices.data(), view.indices.size() * sizeof(std::uint32_t));
  while ((out.size() - start) % 8 != 0) out.push_back(std::byte{0});
  append_bytes(out, view.values.data(), view.values.size() * sizeof(double));
  append_bytes(out, view.sq_norms.data(), view.sq_norms.size() * sizeof(double));
  append_bytes(out, coefficients.data(), coefficients.size() * sizeof(double));
  if (has_bitset) {
    const std::uint64_t words_per_row = bits.words_per_row;
    const std::uint64_t numeric_count = bits.numeric_cols.size();
    append_bytes(out, &words_per_row, sizeof(words_per_row));
    append_bytes(out, &numeric_count, sizeof(numeric_count));
    append_bytes(out, bits.numeric_cols.data(),
                 bits.numeric_cols.size() * sizeof(std::uint32_t));
    while ((out.size() - start) % 8 != 0) out.push_back(std::byte{0});
    append_bytes(out, bits.words.data(), bits.words.size() * sizeof(std::uint64_t));
    append_bytes(out, bits.numeric_values.data(),
                 bits.numeric_values.size() * sizeof(double));
  }
  if (out.size() - start != layout.total) {
    throw std::logic_error{"append_model_blob: layout mismatch"};
  }
  return start;
}

[[noreturn]] void blob_error(const std::string& what) {
  throw std::runtime_error{"view_model_blob: " + what};
}

}  // namespace

std::size_t append_model_blob(std::vector<std::byte>& out,
                              const OneClassSvmModel& model) {
  return append_blob_impl(out, kBlobModelOneClass, model.kernel(), model.rho(),
                          0.0, model.support_vectors(), model.coefficients());
}

std::size_t append_model_blob(std::vector<std::byte>& out, const SvddModel& model) {
  return append_blob_impl(out, kBlobModelSvdd, model.kernel(), model.r_squared(),
                          model.alpha_k_alpha(), model.support_vectors(),
                          model.coefficients());
}

std::size_t append_model_blob(std::vector<std::byte>& out, const AnySvmModel& model) {
  return std::visit([&out](const auto& m) { return append_model_blob(out, m); },
                    model);
}

ModelView view_model_blob(std::span<const std::byte> blob) {
  if (reinterpret_cast<std::uintptr_t>(blob.data()) % 8 != 0) {
    blob_error("blob is not 8-byte aligned");
  }
  if (blob.size() < sizeof(BlobHeader)) {
    blob_error("truncated: " + std::to_string(blob.size()) + " bytes < " +
               std::to_string(sizeof(BlobHeader)) + "-byte header");
  }
  BlobHeader header;
  std::memcpy(&header, blob.data(), sizeof(header));
  if (std::memcmp(header.magic, kBlobMagic, sizeof(kBlobMagic)) != 0) {
    blob_error("bad magic (not a wtp svm blob)");
  }
  if (header.endian != kEndianGuard) {
    if (header.endian == 0x04030201u) {
      blob_error("endianness guard mismatch: blob was written on a "
                 "foreign-endian machine");
    }
    blob_error("corrupt endianness guard");
  }
  if (header.version != kBlobVersion && header.version != kBlobVersionBitset) {
    blob_error("unsupported version " + std::to_string(header.version));
  }
  if (header.model_type != kBlobModelOneClass && header.model_type != kBlobModelSvdd) {
    blob_error("unknown model type " + std::to_string(header.model_type));
  }
  if (header.kernel_type > static_cast<std::uint32_t>(KernelType::kSigmoid)) {
    blob_error("unknown kernel type " + std::to_string(header.kernel_type));
  }
  if (header.value_format != 0) {
    blob_error("unsupported value format " + std::to_string(header.value_format));
  }
  if (header.sv_count == 0) blob_error("zero support vectors");
  // Every count is bounded by the bytes present, by division, before any
  // offset is computed from it, so no layout sum or product wraps size_t.
  // An SV row costs at least 24 bytes (offset, norm, coefficient) and a
  // nonzero 12 (index, value); column indices are u32.
  const std::size_t body = blob.size() - sizeof(BlobHeader);
  const auto check_count = [](std::uint64_t count, std::uint64_t limit,
                              const char* what) {
    if (count > limit) {
      blob_error(std::string{what} + " " + std::to_string(count) +
                 " exceeds what the blob can hold");
    }
  };
  check_count(header.sv_count, body / 24, "sv_count");
  check_count(header.nnz, body / 12, "nnz");
  check_count(header.cols, std::uint64_t{1} << 32, "cols");
  const bool has_bitset = header.version == kBlobVersionBitset;
  std::uint64_t words_per_row = 0;
  std::uint64_t numeric_count = 0;
  if (has_bitset) {
    // The bitset subheader sits right after the v1 sections; read it before
    // the full layout can be computed.
    const BlobLayout base = blob_layout(header.sv_count, header.nnz);
    if (blob.size() < base.total + 2 * sizeof(std::uint64_t)) {
      blob_error("truncated bitset subheader");
    }
    std::memcpy(&words_per_row, blob.data() + base.total, sizeof(words_per_row));
    std::memcpy(&numeric_count, blob.data() + base.total + sizeof(std::uint64_t),
                sizeof(numeric_count));
    if (words_per_row != (header.cols + 63) / 64) {
      blob_error("bitset words_per_row " + std::to_string(words_per_row) +
                 " inconsistent with cols " + std::to_string(header.cols));
    }
    if (numeric_count > util::BitsetStorage::kMaxNumericColumns) {
      blob_error("bitset numeric column count " + std::to_string(numeric_count) +
                 " exceeds limit");
    }
    // numeric_count's cap above bounds numeric_count x sv_count the same way.
    check_count(words_per_row, body / 8 / header.sv_count, "bitset words_per_row");
  }
  const BlobLayout layout =
      blob_layout(header.sv_count, header.nnz, words_per_row, numeric_count,
                  has_bitset);
  if (header.blob_size != layout.total) {
    blob_error("header blob_size " + std::to_string(header.blob_size) +
               " does not match layout size " + std::to_string(layout.total));
  }
  if (blob.size() < layout.total) {
    blob_error("truncated: " + std::to_string(blob.size()) + " bytes < " +
               std::to_string(layout.total) + " expected");
  }

  const auto* base = blob.data();
  const auto* row_offsets =
      reinterpret_cast<const std::size_t*>(base + layout.row_offsets);
  const auto* indices =
      reinterpret_cast<const std::uint32_t*>(base + layout.indices);
  const auto* values = reinterpret_cast<const double*>(base + layout.values);
  const auto* sq_norms = reinterpret_cast<const double*>(base + layout.sq_norms);
  const auto* coefficients =
      reinterpret_cast<const double*>(base + layout.coefficients);

  if (row_offsets[0] != 0) blob_error("row_offsets[0] != 0");
  for (std::size_t i = 0; i < header.sv_count; ++i) {
    if (row_offsets[i + 1] < row_offsets[i]) {
      blob_error("row_offsets not monotone at row " + std::to_string(i));
    }
  }
  if (row_offsets[header.sv_count] != header.nnz) {
    blob_error("row_offsets end " + std::to_string(row_offsets[header.sv_count]) +
               " != nnz " + std::to_string(header.nnz));
  }
  // Rows must meet FeatureMatrix's row rule, strictly ascending column
  // indices, since materialize() adopts these arrays as they are; an
  // ascending row is in bounds when its last index is.  The cascade
  // re-validates every blob it scores, so the per-index work is one
  // branch-free count of descents over the whole array, which vectorizes.
  // The step into a non-empty row from the row before it may descend, so
  // those steps are taken back out.  Only a failing blob is scanned row by
  // row, to name the row.
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
                     " not strictly ascending");
        }
      }
    }
  }
  if (header.nnz > 0 && max_last >= header.cols) {
    blob_error("column index " + std::to_string(max_last) + " >= cols " +
               std::to_string(header.cols));
  }

  ModelView view;
  view.model_type = header.model_type;
  view.kernel.type = static_cast<KernelType>(header.kernel_type);
  view.kernel.gamma = header.gamma;
  view.kernel.coef0 = header.coef0;
  view.kernel.degree = header.degree;
  view.scalar0 = header.scalar0;
  view.scalar1 = header.scalar1;
  view.support_vectors = util::CsrView{
      header.cols,
      {indices, header.nnz},
      {values, header.nnz},
      {row_offsets, header.sv_count + 1},
      {sq_norms, header.sv_count}};
  view.coefficients = {coefficients, header.sv_count};
  if (has_bitset) {
    const auto* numeric_cols =
        reinterpret_cast<const std::uint32_t*>(base + layout.numeric_cols);
    for (std::size_t k = 0; k < numeric_count; ++k) {
      if (numeric_cols[k] >= header.cols) {
        blob_error("bitset numeric column " + std::to_string(numeric_cols[k]) +
                   " >= cols " + std::to_string(header.cols));
      }
      if (k > 0 && numeric_cols[k] <= numeric_cols[k - 1]) {
        blob_error("bitset numeric columns not strictly ascending");
      }
    }
    view.sv_bitset = util::BitsetView{
        header.cols,
        header.sv_count,
        words_per_row,
        {reinterpret_cast<const std::uint64_t*>(base + layout.words),
         header.sv_count * words_per_row},
        {numeric_cols, numeric_count},
        {reinterpret_cast<const double*>(base + layout.numeric_values),
         header.sv_count * numeric_count}};
  }
  return view;
}

double ModelView::decision_value(const KernelQueries& query,
                                 TransformMode tier) const {
  if (query.count() != 1) {
    throw std::invalid_argument{"ModelView::decision_value: " +
                                std::to_string(query.count()) +
                                " query rows, want 1"};
  }
  const auto k = kernel_row_scratch(sv_count());
  kernel_block(kernel, KernelMatrix{support_vectors, sv_bitset}, query, k,
               tier);
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
  const KernelMatrix svs{support_vectors, sv_bitset};
  const KernelMatrix rows = kernel_matrix(queries);
  for (std::size_t q0 = 0; q0 < nq; q0 += kQueryTile) {
    const std::size_t tile = std::min(kQueryTile, nq - q0);
    const std::span<double> k{block.data(), tile * n};
    kernel_block(kernel, svs, KernelQueries::rows(rows, q0, tile), k, tier);
    for (std::size_t t = 0; t < tile; ++t) {
      const double* row = k.data() + t * n;
      out[q0 + t] = decision_from_kernels(
          [row](std::size_t i) { return row[i]; }, queries.sq_norm(q0 + t));
    }
  }
}

ModelView view_of(const OneClassSvmModel& model) {
  ModelView view;
  view.model_type = kBlobModelOneClass;
  view.kernel = model.kernel();
  view.scalar0 = model.rho();
  view.support_vectors = model.support_vectors().view();
  view.coefficients = model.coefficients();
  view.sv_bitset = kernel_matrix(model.support_vectors()).bitset;
  return view;
}

ModelView view_of(const SvddModel& model) {
  ModelView view;
  view.model_type = kBlobModelSvdd;
  view.kernel = model.kernel();
  view.scalar0 = model.r_squared();
  view.scalar1 = model.alpha_k_alpha();
  view.support_vectors = model.support_vectors().view();
  view.coefficients = model.coefficients();
  view.sv_bitset = kernel_matrix(model.support_vectors()).bitset;
  return view;
}

ModelView view_of(const AnySvmModel& model) {
  return std::visit([](const auto& m) { return view_of(m); }, model);
}

AnySvmModel materialize(const ModelView& view, std::shared_ptr<const void> owner) {
  util::FeatureMatrix matrix =
      util::FeatureMatrix::borrow(view.support_vectors, std::move(owner));
  std::vector<double> coefficients{view.coefficients.begin(),
                                   view.coefficients.end()};
  if (view.model_type == kBlobModelOneClass) {
    return OneClassSvmModel::from_parts(view.kernel, std::move(matrix),
                                        std::move(coefficients), view.scalar0);
  }
  return SvddModel::from_parts(view.kernel, std::move(matrix),
                               std::move(coefficients), view.scalar0,
                               view.scalar1);
}

}  // namespace wtp::svm
