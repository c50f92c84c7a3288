// Kernel functions over sparse feature vectors (paper §II, eq. 2).
//
// The four kernels of the paper's grid search (Tab. III):
//   linear      k(x,y) = x.y
//   polynomial  k(x,y) = (gamma x.y + coef0)^degree
//   rbf         k(x,y) = exp(-gamma ||x-y||^2)      [paper: gamma = 1/C]
//   sigmoid     k(x,y) = tanh(gamma x.y + coef0)
//
// Every kernel value the system computes goes through one entry point,
// kernel_block(params, matrix, queries, out): a matrix descriptor (the rows
// scored against: CSR plus an optional bitset companion) times a query
// descriptor (CSR rows plus whatever encodings the bitset plane can reuse).
// A single row — a scored window, an SMO Q-matrix row — is a block of one.
// dot_block is its raw-dot twin (no transform) for the non-kernel consumers,
// and kernel_transform is the tail the SMO solver applies to cached Gram
// rows.  kernel_eval and kernel_self stay as the per-pair oracles.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/bitset_view.h"
#include "util/feature_matrix.h"
#include "util/sparse_vector.h"

namespace wtp::obs {
class Registry;
}  // namespace wtp::obs

namespace wtp::svm {

enum class KernelType : std::uint8_t { kLinear, kPolynomial, kRbf, kSigmoid };

[[nodiscard]] std::string_view to_string(KernelType type) noexcept;
/// Throws std::runtime_error on unknown names.
[[nodiscard]] KernelType parse_kernel_type(std::string_view text);

/// Precision tier of the batched kernel transform (DESIGN §14), chosen by
/// the caller per kernel_block / kernel_transform call.
///
///   kExact   — std::exp/std::tanh per element in the oracle's expression
///              order; every output bit-identical to kernel_eval.  The
///              default of every entry point, and the only tier training
///              runs.
///   kRelaxed — in-repo vectorized exp/tanh (svm/relaxed_math.h) with a
///              documented max-ULP bound (exp <= 4, tanh <= 8).  A scoring
///              caller opts in by passing it (serve::EngineConfig::transform).
enum class TransformMode : std::uint8_t { kExact, kRelaxed };

[[nodiscard]] std::string_view to_string(TransformMode mode) noexcept;
/// Parses "exact" / "relaxed" (case-insensitive).  Throws std::runtime_error
/// on unknown names.
[[nodiscard]] TransformMode parse_transform_mode(std::string_view text);

struct KernelParams {
  KernelType type = KernelType::kRbf;
  /// gamma <= 0 means "auto": replaced by 1/dimension at training time.
  double gamma = 0.0;
  double coef0 = 0.0;
  int degree = 3;

  friend bool operator==(const KernelParams&, const KernelParams&) = default;
};

/// Evaluates k(x, y).  For RBF, the squared norms of x and y may be passed
/// to avoid recomputation (the solver precomputes them for all rows).
[[nodiscard]] double kernel_eval(const KernelParams& params,
                                 const util::SparseVector& x,
                                 const util::SparseVector& y);
[[nodiscard]] double kernel_eval(const KernelParams& params,
                                 const util::SparseVector& x,
                                 const util::SparseVector& y, double x_sqnorm,
                                 double y_sqnorm);

/// k(x, x): 1 for RBF, ||x||-dependent otherwise.
[[nodiscard]] double kernel_self(const KernelParams& params,
                                 const util::SparseVector& x);
/// k(x, x) from a cached squared norm (FeatureMatrix rows, scored queries).
[[nodiscard]] double kernel_self(const KernelParams& params, double sq_norm);

// ----------------------------------------------------------------------
// Backend dispatch (DESIGN §11, §14).
//
// Two SIMD planes run under one selection: the bitset dot backend
// (AND+popcount over a matrix's bitset companion; the scalar CSR path is the
// fallback) and the transform backend (the tiled tail that turns raw dots
// into kernel values).  Both are bit-identical to the scalar oracle in the
// exact tier, so the selection changes speed, never decisions: the exact
// transform vectorizes everything around the libm call (the RBF
// squared-distance assembly with its clamp, the gamma*dot+coef0 pre-scale,
// lane-parallel powi) and keeps exp/tanh libm per element.
//
// The selection is made once, at first use: the fastest of each plane's
// compiled-in set the CPU supports (avx512 > avx2 > popcnt > scalar for
// dots, avx512 > avx2 > scalar for transforms), overridable with
// WTP_KERNEL_BACKEND=<name>.  The two planes check CPU support separately:
// the avx512 transform needs only avx512f, the avx512 dot also vpopcntdq.
// A named backend picks the same-named transform where one exists and the
// scalar transform otherwise ("popcnt", "csr").  WTP_KERNEL_BACKEND=csr
// disables the bitset plane entirely (pure scalar CSR).  An unknown name
// throws std::runtime_error at first use; a known but unsupported name
// warns on stderr and falls back to the portable scalar backends.
// ----------------------------------------------------------------------

/// Active bitset backend, or nullptr when the bitset plane is disabled.
[[nodiscard]] const util::BitsetDotOps* kernel_dispatch();
/// Name of the active backend ("csr" when disabled).
[[nodiscard]] std::string_view kernel_backend_name();
/// Name of the active transform backend ("avx512", "avx2", "scalar").
[[nodiscard]] std::string_view transform_backend_name();
/// Backend names this host can actually run (always contains "scalar").
[[nodiscard]] std::vector<std::string_view> supported_kernel_backends();
/// Forces a backend by name, for both planes ("csr" disables the bitset
/// plane; "" re-selects from the environment).  Throws std::runtime_error on
/// unknown or unsupported names.  Test/bench hook — not thread-safe against
/// concurrent kernel calls.
void set_kernel_backend_for_testing(std::string_view name);

/// Installs per-kernel timing into `registry`:
///   kernel.dot_ns{kernel=...}       — time per dot phase (kernel_block)
///   kernel.transform_ns{kernel=...} — time per transform tail
/// Process-global seam: the registry must outlive all subsequent kernel
/// calls (tools pass obs::Registry::global()).  nullptr uninstalls; timing
/// is a no-op when uninstalled.
void set_kernel_metrics(obs::Registry* registry);

// ----------------------------------------------------------------------
// The kernel entry point.
// ----------------------------------------------------------------------

/// Matrix descriptor: the rows a kernel block scores against.  `bitset`,
/// when set, routes dots through the dispatched AND+popcount backend; the
/// CSR rows are the fallback (and the oracle).  `csr.cols` and
/// `csr.sq_norms` (one per row) are always set, but the CSR rows themselves
/// may be absent (has_rows() false) when `bitset` holds them — a
/// bitset-stored SV block (svm/model_io.h v3).  A CSR path then decodes them
/// from the bitset (util::DecodedRows) into per-thread scratch.
struct KernelMatrix {
  util::CsrView csr;
  std::optional<util::BitsetView> bitset;

  [[nodiscard]] std::size_t rows() const noexcept { return csr.sq_norms.size(); }
  [[nodiscard]] bool has_rows() const noexcept { return !csr.row_offsets.empty(); }
};

/// The one way a FeatureMatrix becomes a kernel operand: its CSR view plus
/// its bitset — the cached companion, built on first use, or the stored
/// block of a bitset-stored matrix, which then attaches no CSR rows.  While
/// the bitset plane is disabled (WTP_KERNEL_BACKEND=csr) no bitset is built
/// or attached, and a bitset-stored matrix attaches its decoded rows.
[[nodiscard]] KernelMatrix kernel_matrix(const util::FeatureMatrix& matrix);

/// Reuses one query's bitset encoding across many matrices that share a
/// layout — the cascade's stage-4 survivors and exhaustive fan-outs score
/// one window against hundreds of per-user SV blocks whose layouts are
/// schema-identical, so the encode work is paid once, not per user.
/// One cache serves one query row: kernel_block passes it that row.
class EncodedQueryCache {
 public:
  /// Encoding of the query (indices, values) against `layout`, or nullptr
  /// when the query does not conform (callers fall back to the CSR path).
  [[nodiscard]] const util::BitsetQuery* get(
      const util::BitsetView& layout, std::span<const std::uint32_t> indices,
      std::span<const double> values);

 private:
  struct Entry {
    std::size_t cols;
    std::vector<std::uint32_t> numeric_cols;
    util::BitsetQuery query;
    bool ok;
  };
  std::vector<Entry> entries_;
};

/// Query descriptor: the rows a kernel block scores, as CSR rows with their
/// squared norms, plus the encodings the bitset plane may reuse.
class KernelQueries {
 public:
  /// Rows [begin, begin + count) of `source`, which must carry its CSR rows
  /// (throws std::invalid_argument otherwise).  Where the source's bitset
  /// shares the scored matrix's layout, its rows are the queries' encodings
  /// — so a matrix's own row borrows its own encoding (the SMO path).
  [[nodiscard]] static KernelQueries rows(const KernelMatrix& source,
                                          std::size_t begin, std::size_t count);
  /// One row.  `cache`, when set, shares the row's bitset encoding across
  /// every matrix of the same layout it is scored against.
  [[nodiscard]] static KernelQueries row(std::span<const std::uint32_t> indices,
                                         std::span<const double> values,
                                         double sq_norm,
                                         EncodedQueryCache* cache = nullptr);
  /// One SparseVector row, converted once into a per-thread SoA scratch:
  /// the descriptor is valid until the same thread's next conversion.
  [[nodiscard]] static KernelQueries row(const util::SparseVector& x,
                                         double sq_norm);

  [[nodiscard]] std::size_t count() const noexcept {
    return single_ ? 1 : csr_.rows();
  }
  /// The query rows.  Points into this descriptor for a single row, so it
  /// is valid while the descriptor is.
  [[nodiscard]] util::CsrView csr() const noexcept;
  [[nodiscard]] const std::optional<util::BitsetView>& bitset() const noexcept {
    return bitset_;
  }
  [[nodiscard]] EncodedQueryCache* cache() const noexcept { return cache_; }

 private:
  KernelQueries() = default;

  util::CsrView csr_;
  bool single_ = false;
  std::array<std::size_t, 2> row_offsets_{};  ///< single row: {0, nnz}
  double sq_norm_ = 0.0;                      ///< single row
  std::optional<util::BitsetView> bitset_;
  EncodedQueryCache* cache_ = nullptr;
};

/// out[q * matrix.rows() + r] = k(query_q, row_r) for every query and row.
/// Bit-identical to per-pair kernel_eval with cached norms in the exact
/// tier, on every backend.  Throws std::invalid_argument, before writing
/// anything, unless out.size() == queries.count() * matrix.rows().
void kernel_block(const KernelParams& params, const KernelMatrix& matrix,
                  const KernelQueries& queries, std::span<double> out,
                  TransformMode tier = TransformMode::kExact);

/// Raw dots (no kernel transform): out[q * matrix.rows() + r] =
/// query_q . row_r, bit-identical to CsrView::dot_all — the entry point for
/// non-kernel consumers (kde densities, knn distances, GramCache rows).
/// Same shape check as kernel_block.
void dot_block(const KernelMatrix& matrix, const KernelQueries& queries,
               std::span<double> out);

/// In-place kernel transform of one query's raw dots: `inout[j]` holds
/// x . row_j on entry and k(x, row_j) on return, where `sq_norms[j]` is
/// ||row_j||^2.  Every grid-search kernel is such a transform of the same
/// Gram row, which is what lets a sweep share dot products across kernels
/// (GramCache).  Bit-identical to kernel_block given the same dots and tier.
/// Throws std::invalid_argument unless inout.size() == sq_norms.size().
void kernel_transform(const KernelParams& params,
                      std::span<const double> sq_norms, double x_sqnorm,
                      std::span<double> inout,
                      TransformMode tier = TransformMode::kExact);

/// Thread-local scratch sized for one kernel row (one value per matrix
/// row), reused across decision-function calls on the same thread.
///
/// Contract: the returned span is valid until the SAME thread's next call —
/// each call may grow (never shrink) one per-thread buffer and returns a
/// prefix of it, so a later call with a larger `size` can relocate the
/// memory behind spans handed out earlier on that thread.  Callers must not
/// hold a previous span across a call, and must not share the span with
/// other threads.  Growth preserves the prefix contents; elements past any
/// previously requested size are value-initialized (0.0).
[[nodiscard]] std::span<double> kernel_row_scratch(std::size_t size);

/// Human-readable "rbf(gamma=0.25)" form for reports.
[[nodiscard]] std::string describe(const KernelParams& params);

}  // namespace wtp::svm
