// Persistence for trained SvmModels (svm/svm_model.h): the binary blob, one
// per user in the mapped profile store (index/store_format.h), and the
// ModelView that scores a model, whoever owns its bytes.
//
//    A self-contained little-endian block that can be viewed in place from
//    a memory-mapped file with zero copies.  All sections sit at their
//    natural alignment provided the blob itself starts 8-byte aligned.  Two
//    versions share one 96-byte header:
//
//      offset  size  field
//      0       8     magic "WTPSVMB1"
//      8       4     u32 version (1 = CSR rows, 3 = bitset rows)
//      12      4     u32 endianness guard (= 0x01020304 as written)
//      16      4     u32 model type (SvmKind: 0 = oc-svm, 1 = svdd)
//      20      4     u32 kernel type (KernelType enum value)
//      24      8     f64 gamma
//      32      8     f64 coef0
//      40      4     i32 degree
//      44      4     u32 value format (0 = f64; reserved for quantization)
//      48      8     f64 scalar0 (rho | r_squared)
//      56      8     f64 scalar1 (0  | alpha_k_alpha)
//      64      8     u64 sv_count
//      72      8     u64 nnz (v1: CSR nonzeros; v3: 0)
//      80      8     u64 cols
//      88      8     u64 blob_size (whole blob, header included)
//
//    Version 3 holds a support-vector block util::BitsetStorage::build can
//    represent (DESIGN §10, §11) once, as its bitset; CSR rows are derived
//    from it (util::DecodedRows) only where a CSR path needs them.  Its
//    numeric columns are the writer's hint (the store schema's) when the
//    rows conform to it, the auto-detected set otherwise:
//
//      96      8     u64 numeric column count (<= 16)
//      104           u32 numeric_cols[count], strictly ascending, < cols,
//                    padded to 8
//      ...           f64 sq_norms[sv_count]
//      ...           f64 coefficients[sv_count]
//      ...           u64 words[sv_count * ceil(cols / 64)]: bit c of a row
//                    set <=> the row holds 1.0 at column c; no bit at or
//                    past cols, none at a numeric column
//      ...           f64 numeric_values[sv_count * count]: finite, 0.0 where
//                    the row has no entry
//
//    cols is 1..16384.  Version 1 holds any other block as CSR rows:
//
//      96            u64 row_offsets[sv_count + 1]
//      ...           u32 indices[nnz], padded to 8
//      ...           f64 values[nnz]
//      ...           f64 sq_norms[sv_count]
//      ...           f64 coefficients[sv_count]
//
//    Version 2, which held a bitset-representable block twice (CSR rows and
//    the bitset), is refused.  Values stay f64 so mmap-viewed decisions are
//    bit-identical to the heap models they were serialized from.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "svm/svm_model.h"

namespace wtp::svm {

/// Another name for SvmModel, which the layer ledger (bench/ledger/) uses.
using AnySvmModel = SvmModel;

/// Non-owning decision-capable view of one model, either over a binary blob
/// (mmap) or borrowed from a heap model (view_of).  It holds the only copy
/// of the decision arithmetic of both model kinds, and heap models score by
/// forwarding here, so decision values are bit-identical regardless of who
/// owns the support vectors.
struct ModelView {
  SvmKind kind = SvmKind::kOcSvm;
  KernelParams kernel;
  double scalar0 = 0.0;  ///< rho (oc-svm) | r_squared (svdd)
  double scalar1 = 0.0;  ///< 0            | alpha_k_alpha (svdd)
  /// The SV block as a kernel operand: CSR rows only (blob v1), the bitset
  /// only (blob v3), or both (a heap matrix via view_of).  Scoring routes
  /// dots through the dispatched AND+popcount backend when the bitset is
  /// set.
  KernelMatrix support_vectors;
  std::span<const double> coefficients;  ///< aligned with SV rows

  [[nodiscard]] std::size_t sv_count() const noexcept {
    return support_vectors.rows();
  }

  /// f(x) from the query's kernel values: `k_at(i)` returns k(sv_i, x) for
  /// support vector i, `x_sqnorm` is ||x||^2 (for SVDD's k(x, x)).
  ///   oc-svm  f(x) = sum_i alpha_i k(sv_i, x) - rho                (eq. 6)
  ///   svdd    f(x) = R^2 - (k(x, x) - 2 sum_i alpha_i k(sv_i, x)
  ///                         + alpha^T K alpha)                       (eq. 12)
  /// decision_value(s) reduce through it; the grid's pair scorer runs the
  /// same sum chain per query and finishes through decision_from_sum, so
  /// they agree bit for bit given the same kernel values.
  template <class KernelAt>
  [[nodiscard]] double decision_from_kernels(KernelAt&& k_at,
                                             double x_sqnorm) const {
    double sum = 0.0;
    for (std::size_t i = 0; i < coefficients.size(); ++i) {
      sum += coefficients[i] * k_at(i);
    }
    return decision_from_sum(sum, x_sqnorm);
  }

  /// f(x) from sum = sum_i alpha_i k(sv_i, x), accumulated in SV order
  /// from 0.0.  Reads only kind, kernel and the two scalars.
  [[nodiscard]] double decision_from_sum(double sum, double x_sqnorm) const {
    if (kind == SvmKind::kOcSvm) return sum - scalar0;
    const double k_xx = kernel_self(kernel, x_sqnorm);
    return scalar0 - (k_xx - 2.0 * sum + scalar1);
  }

  /// Decision value of a one-row query (KernelQueries::row) in transform
  /// tier `tier`; throws std::invalid_argument for any other row count.
  [[nodiscard]] double decision_value(
      const KernelQueries& query,
      TransformMode tier = TransformMode::kExact) const;
  /// Decisions of every row of `queries`, one kernel_block per bounded
  /// query tile — bit-identical to per-row decision_value.  `out` needs
  /// queries.rows().  The heap models' decision_values forward here.
  void decision_values(const util::FeatureMatrix& queries,
                       std::span<double> out,
                       TransformMode tier = TransformMode::kExact) const;
};

/// Serializes a model as a binary blob appended to `out`: v3 when
/// util::BitsetStorage::build can represent its SV rows, v1 otherwise.  A v3
/// block takes the `numeric_cols` layout (ascending; the store passes its
/// schema's, so every schema-layout query conforms to every blob) when the
/// rows conform to it, and the auto-detected layout when they do not or the
/// hint is empty.  The bytes follow from the rows and the hint alone, not
/// from the kernel backend.  Pads `out` to 8-byte alignment first; returns
/// the offset where the blob starts (its size is out.size() - offset
/// afterwards, also recorded in the header).
std::size_t append_model_blob(std::vector<std::byte>& out, const SvmModel& model,
                              std::span<const std::uint32_t> numeric_cols = {});

/// Validates a blob (magic, version, endianness guard, size/offset
/// consistency; v1: strictly ascending, in-bounds column indices in every
/// row — FeatureMatrix's row rule, so materialize() can adopt the arrays;
/// v3: the bitset rules of the layout above) and returns a zero-copy view
/// into it.  `blob` must start 8-byte aligned (mmap pages and
/// append_model_blob both guarantee this).  Throws std::runtime_error on
/// any malformation, naming the offset within the blob of the field at
/// fault.
[[nodiscard]] ModelView view_model_blob(std::span<const std::byte> blob);
/// view_model_blob without its checks, for a caller that had the same
/// unchanged bytes accepted by view_model_blob before (the mapped store
/// validates each blob once): it only locates the sections.  Undefined on
/// bytes that were never accepted.
[[nodiscard]] ModelView view_checked_model_blob(std::span<const std::byte> blob);

/// Borrowed view of a heap model — the bridge that lets one scoring path
/// serve both storage backends.  Valid while the model is.  The SV block's
/// bitset companion is attached through kernel_matrix (built on first use).
[[nodiscard]] ModelView view_of(const SvmModel& model);

/// Turns a view back into a heap model whose support-vector block borrows
/// the view's arrays (util::FeatureMatrix::borrow): its CSR rows, or its
/// bitset and norms alone when it carries no rows (blob v3), in which case
/// the model decodes CSR rows only on a first CSR access.  Only the
/// coefficients are copied.  `owner` must keep the arrays alive and unchanged — the
/// mapping or the blob buffer the view was taken from — and the model and
/// its copies hold it for as long as they live.
[[nodiscard]] SvmModel materialize(const ModelView& view,
                                   std::shared_ptr<const void> owner);

}  // namespace wtp::svm
