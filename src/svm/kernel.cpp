#include "svm/kernel.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "obs/registry.h"
#include "svm/kernel_backends.h"
#include "svm/kernel_scalar_body.h"
#include "util/strings.h"

namespace wtp::svm {

std::span<double> kernel_row_scratch(std::size_t size) {
  thread_local std::vector<double> scratch;
  if (scratch.size() < size) {
    // Growing relocates the buffer, which invalidates spans handed out
    // earlier on this thread (see the contract in kernel.h).  Grow
    // geometrically so a ratcheting caller triggers O(log n) relocations,
    // and value-initialize the tail so the full span is always readable.
    scratch.resize(std::max(size, scratch.size() * 2), 0.0);
  }
  return std::span<double>{scratch.data(), size};
}

std::string_view to_string(KernelType type) noexcept {
  switch (type) {
    case KernelType::kLinear: return "linear";
    case KernelType::kPolynomial: return "polynomial";
    case KernelType::kRbf: return "rbf";
    case KernelType::kSigmoid: return "sigmoid";
  }
  return "linear";
}

KernelType parse_kernel_type(std::string_view text) {
  const std::string lowered = util::to_lower(text);
  if (lowered == "linear") return KernelType::kLinear;
  if (lowered == "polynomial" || lowered == "poly") return KernelType::kPolynomial;
  if (lowered == "rbf") return KernelType::kRbf;
  if (lowered == "sigmoid") return KernelType::kSigmoid;
  throw std::runtime_error{"parse_kernel_type: unknown kernel '" + std::string{text} + "'"};
}

std::string_view to_string(TransformMode mode) noexcept {
  switch (mode) {
    case TransformMode::kExact: return "exact";
    case TransformMode::kRelaxed: return "relaxed";
  }
  return "exact";
}

TransformMode parse_transform_mode(std::string_view text) {
  const std::string lowered = util::to_lower(text);
  if (lowered == "exact") return TransformMode::kExact;
  if (lowered == "relaxed") return TransformMode::kRelaxed;
  throw std::runtime_error{"parse_transform_mode: unknown mode '" +
                           std::string{text} + "' (want exact|relaxed)"};
}

namespace {

// ------------------------------------------------------ backend selection --

/// One selection of both SIMD planes.  Records are immutable once published
/// and never freed, so a reader holding one sees a consistent pair.
struct Dispatch {
  std::string_view name;                  ///< "csr" when `dot` is null
  const util::BitsetDotOps* dot;          ///< null: bitset plane disabled
  const detail::TransformOps* transform;

  friend bool operator==(const Dispatch&, const Dispatch&) = default;
};

std::atomic<const Dispatch*> g_dispatch{nullptr};
std::mutex g_select_mutex;  ///< serializes selection and publication

/// First supported entry of a fastest-first backend list (both lists end
/// with an always-supported scalar entry).
template <class Backends>
auto fastest(const Backends& backends) {
  for (const auto& backend : backends) {
    if (backend.supported()) return backend.ops;
  }
  return backends.back().ops;
}

/// The transform backend of the same name where one exists and the CPU
/// supports it; the scalar transform for every other name ("popcnt",
/// "scalar", "csr", unsupported ones).
const detail::TransformOps* transform_named(std::string_view name) {
  for (const auto& backend : detail::transform_backends()) {
    if (name == backend.ops->name && backend.supported()) return backend.ops;
  }
  return &detail::scalar_transform_ops();
}

/// Selects both planes for `requested` (empty = the fastest each plane
/// supports).  `source` names the request in errors.  An unknown name
/// throws; an unsupported one throws when `strict`, else warns and falls
/// back to the scalar dots.
Dispatch select_dispatch(std::string_view requested, const char* source,
                         bool strict) {
  if (requested.empty()) {
    const util::BitsetDotOps* dot = fastest(detail::kernel_backends());
    return {dot->name, dot, fastest(detail::transform_backends())};
  }
  if (requested == "csr" || requested == "none" || requested == "off") {
    return {"csr", nullptr, &detail::scalar_transform_ops()};
  }
  for (const auto& backend : detail::kernel_backends()) {
    if (requested != backend.ops->name) continue;
    if (backend.supported()) {
      return {backend.ops->name, backend.ops, transform_named(requested)};
    }
    if (strict) {
      throw std::runtime_error{std::string{source} + ": backend '" +
                               std::string{requested} +
                               "' not supported by this CPU"};
    }
    std::fprintf(stderr,
                 "wtp: kernel backend '%s' not supported by this CPU; "
                 "falling back to scalar\n",
                 backend.ops->name);
    const util::BitsetDotOps* scalar = &util::scalar_bitset_ops();
    return {scalar->name, scalar, transform_named(requested)};
  }
  throw std::runtime_error{std::string{source} + ": unknown backend '" +
                           std::string{requested} + "'"};
}

/// Interns `selected` (a handful of distinct records exist per process) and
/// publishes it as the active dispatch.  Caller holds g_select_mutex.
const Dispatch& publish(const Dispatch& selected) {
  static std::deque<Dispatch> records;
  const auto found = std::find(records.begin(), records.end(), selected);
  const Dispatch& record =
      found != records.end() ? *found : records.emplace_back(selected);
  g_dispatch.store(&record, std::memory_order_release);
  return record;
}

const Dispatch& active_dispatch() {
  if (const Dispatch* dispatch = g_dispatch.load(std::memory_order_acquire)) {
    return *dispatch;
  }
  const std::scoped_lock lock{g_select_mutex};
  if (const Dispatch* dispatch = g_dispatch.load(std::memory_order_acquire)) {
    return *dispatch;
  }
  const char* env = std::getenv("WTP_KERNEL_BACKEND");
  return publish(select_dispatch(env == nullptr ? std::string_view{} : env,
                                 "WTP_KERNEL_BACKEND", false));
}

// ------------------------------------------------------------------ obs --

/// Per-kernel dot/transform timers; resolved once per set_kernel_metrics
/// install, lock-free on the hot path.
struct KernelMetrics {
  std::array<obs::Timer*, 4> dot{};
  std::array<obs::Timer*, 4> transform{};
};

std::atomic<const KernelMetrics*> g_metrics{nullptr};

const KernelMetrics* kernel_metrics() {
  return g_metrics.load(std::memory_order_acquire);
}

std::size_t kernel_index(KernelType type) {
  return static_cast<std::size_t>(type);
}

std::int64_t phase_begin(const KernelMetrics* metrics) {
  if (metrics == nullptr) return 0;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void dot_phase_end(const KernelMetrics* metrics, KernelType type,
                   std::int64_t start) {
  if (metrics == nullptr) return;
  const std::int64_t now = phase_begin(metrics);
  metrics->dot[kernel_index(type)]->record_ns(static_cast<double>(now - start));
}

void transform_phase_end(const KernelMetrics* metrics, KernelType type,
                         std::int64_t start) {
  if (metrics == nullptr) return;
  const std::int64_t now = phase_begin(metrics);
  metrics->transform[kernel_index(type)]->record_ns(
      static_cast<double>(now - start));
}

}  // namespace

const util::BitsetDotOps* kernel_dispatch() { return active_dispatch().dot; }

std::string_view kernel_backend_name() { return active_dispatch().name; }

std::string_view transform_backend_name() {
  return active_dispatch().transform->name;
}

std::vector<std::string_view> supported_kernel_backends() {
  std::vector<std::string_view> names;
  for (const auto& backend : detail::kernel_backends()) {
    if (backend.supported()) names.emplace_back(backend.ops->name);
  }
  return names;
}

void set_kernel_backend_for_testing(std::string_view name) {
  const std::scoped_lock lock{g_select_mutex};
  if (name.empty()) {
    g_dispatch.store(nullptr, std::memory_order_release);
    return;
  }
  publish(select_dispatch(name, "set_kernel_backend_for_testing", true));
}

void set_kernel_metrics(obs::Registry* registry) {
  if (registry == nullptr) {
    g_metrics.store(nullptr, std::memory_order_release);
    return;
  }
  // Handle bundles live in a static deque so a pointer published earlier
  // stays valid across re-installs (handles themselves are stable for the
  // registry's lifetime; the registry must outlive all kernel calls —
  // tools pass obs::Registry::global()).
  static std::mutex mutex;
  static std::deque<KernelMetrics> bundles;
  const std::scoped_lock lock{mutex};
  KernelMetrics metrics;
  constexpr std::array<KernelType, 4> kTypes{
      KernelType::kLinear, KernelType::kPolynomial, KernelType::kRbf,
      KernelType::kSigmoid};
  for (const KernelType type : kTypes) {
    const obs::Label label{"kernel", std::string{to_string(type)}};
    const std::span<const obs::Label> labels{&label, 1};
    metrics.dot[kernel_index(type)] = &registry->timer("kernel.dot_ns", labels);
    metrics.transform[kernel_index(type)] =
        &registry->timer("kernel.transform_ns", labels);
  }
  bundles.push_back(metrics);
  g_metrics.store(&bundles.back(), std::memory_order_release);
}

// The per-element expressions live in svm/kernel_scalar_body.h — the ONE
// scalar definition kernel_eval, kernel_self, and every transform backend
// stamp from, so exact-tier bit-identity is by construction.
double kernel_eval(const KernelParams& params, const util::SparseVector& x,
                   const util::SparseVector& y, double x_sqnorm,
                   double y_sqnorm) {
  switch (params.type) {
    case KernelType::kLinear:
      return x.dot(y);
    case KernelType::kPolynomial:
      return detail::poly_element(params.gamma, params.coef0, params.degree,
                                  x.dot(y));
    case KernelType::kRbf:
      return std::exp(
          detail::rbf_exp_arg(params.gamma, x_sqnorm, y_sqnorm, x.dot(y)));
    case KernelType::kSigmoid:
      return std::tanh(detail::affine_arg(params.gamma, params.coef0, x.dot(y)));
  }
  throw std::logic_error{"kernel_eval: invalid kernel type"};
}

double kernel_eval(const KernelParams& params, const util::SparseVector& x,
                   const util::SparseVector& y) {
  if (params.type == KernelType::kRbf) {
    return kernel_eval(params, x, y, x.squared_norm(), y.squared_norm());
  }
  return kernel_eval(params, x, y, 0.0, 0.0);
}

double kernel_self(const KernelParams& params, const util::SparseVector& x) {
  return kernel_self(params, x.squared_norm());
}

double kernel_self(const KernelParams& params, double sq_norm) {
  switch (params.type) {
    case KernelType::kRbf:
      return 1.0;
    case KernelType::kLinear:
      return sq_norm;
    case KernelType::kPolynomial:
      return detail::poly_element(params.gamma, params.coef0, params.degree,
                                  sq_norm);
    case KernelType::kSigmoid:
      return std::tanh(detail::affine_arg(params.gamma, params.coef0, sq_norm));
  }
  throw std::logic_error{"kernel_self: invalid kernel type"};
}

namespace {

/// Tile width of the batched transform: the argument pass and the exp/tanh
/// pass revisit the same 8 KB of `out` (plus 8 KB of sq_norms for RBF), so
/// a tile stays L1-resident between the two passes.
constexpr std::size_t kTransformTile = 1024;

/// The tiled transform core (DESIGN §14).  Everything around the libm call
/// runs through the dispatched SIMD backend — the RBF squared-distance
/// assembly with its clamp, the gamma*dot+coef0 pre-scale, lane-parallel
/// powi — all bit-identical to kernel_eval's expressions by construction.
/// Exact tier then applies std::exp/std::tanh per element; relaxed tier
/// applies the backend's vectorized stamps instead.
void transform_tiles(const KernelParams& params,
                     std::span<const double> row_sq_norms, double x_sqnorm,
                     std::span<double> out, bool relaxed) {
  const std::size_t n = row_sq_norms.size();
  const detail::TransformOps& ops = *active_dispatch().transform;
  switch (params.type) {
    case KernelType::kLinear:
      return;
    case KernelType::kPolynomial:
      // No transcendental: the whole transform is one SIMD pass.
      ops.poly_transform(params.gamma, params.coef0, params.degree, out.data(),
                         n);
      return;
    case KernelType::kRbf: {
      const double* sq_norms = row_sq_norms.data();
      for (std::size_t j = 0; j < n; j += kTransformTile) {
        const std::size_t len = std::min(kTransformTile, n - j);
        double* tile = out.data() + j;
        ops.rbf_exp_args(params.gamma, x_sqnorm, sq_norms + j, tile, len);
        if (relaxed) {
          ops.exp_inplace(tile, len);
        } else {
          for (std::size_t t = 0; t < len; ++t) tile[t] = std::exp(tile[t]);
        }
      }
      return;
    }
    case KernelType::kSigmoid: {
      for (std::size_t j = 0; j < n; j += kTransformTile) {
        const std::size_t len = std::min(kTransformTile, n - j);
        double* tile = out.data() + j;
        ops.affine_args(params.gamma, params.coef0, tile, len);
        if (relaxed) {
          ops.tanh_inplace(tile, len);
        } else {
          for (std::size_t t = 0; t < len; ++t) tile[t] = std::tanh(tile[t]);
        }
      }
      return;
    }
  }
  throw std::logic_error{"kernel_transform: invalid kernel type"};
}

}  // namespace

void kernel_transform(const KernelParams& params,
                      std::span<const double> sq_norms, double x_sqnorm,
                      std::span<double> out, TransformMode tier) {
  if (out.size() != sq_norms.size()) {
    throw std::invalid_argument{"kernel_transform: out holds " +
                                std::to_string(out.size()) + " values for " +
                                std::to_string(sq_norms.size()) + " rows"};
  }
  if (params.type == KernelType::kLinear) return;
  const KernelMetrics* metrics = kernel_metrics();
  const std::int64_t start = phase_begin(metrics);
  transform_tiles(params, sq_norms, x_sqnorm, out,
                  tier == TransformMode::kRelaxed);
  transform_phase_end(metrics, params.type, start);
}

KernelMatrix kernel_matrix(const util::FeatureMatrix& matrix) {
  // Plane disabled: skip the lazy build, and score CSR rows (decoded once,
  // and kept, for a bitset-stored matrix).
  if (kernel_dispatch() == nullptr) return {matrix.view(), std::nullopt};
  if (matrix.bitset_stored()) {
    return {util::CsrView{matrix.cols(), {}, {}, {}, matrix.sq_norms()},
            matrix.bitset()};
  }
  return {matrix.view(), matrix.bitset()};
}

const util::BitsetQuery* EncodedQueryCache::get(
    const util::BitsetView& layout, std::span<const std::uint32_t> indices,
    std::span<const double> values) {
  for (const Entry& entry : entries_) {
    if (entry.cols == layout.cols &&
        entry.numeric_cols.size() == layout.numeric_cols.size() &&
        std::equal(entry.numeric_cols.begin(), entry.numeric_cols.end(),
                   layout.numeric_cols.begin())) {
      return entry.ok ? &entry.query : nullptr;
    }
  }
  Entry& entry = entries_.emplace_back();
  entry.cols = layout.cols;
  entry.numeric_cols.assign(layout.numeric_cols.begin(), layout.numeric_cols.end());
  entry.ok = entry.query.encode(layout, indices, values);
  return entry.ok ? &entry.query : nullptr;
}

KernelQueries KernelQueries::rows(const KernelMatrix& source, std::size_t begin,
                                  std::size_t count) {
  if (!source.has_rows()) {
    throw std::invalid_argument{
        "KernelQueries::rows: the source carries no CSR rows"};
  }
  KernelQueries queries;
  queries.csr_ = source.csr.rows_slice(begin, count);
  if (source.bitset) queries.bitset_ = source.bitset->rows_slice(begin, count);
  return queries;
}

KernelQueries KernelQueries::row(std::span<const std::uint32_t> indices,
                                 std::span<const double> values, double sq_norm,
                                 EncodedQueryCache* cache) {
  KernelQueries queries;
  queries.csr_.indices = indices;
  queries.csr_.values = values;
  queries.single_ = true;
  queries.row_offsets_ = {0, indices.size()};
  queries.sq_norm_ = sq_norm;
  queries.cache_ = cache;
  return queries;
}

KernelQueries KernelQueries::row(const util::SparseVector& x, double sq_norm) {
  thread_local std::vector<std::uint32_t> indices;
  thread_local std::vector<double> values;
  indices.clear();
  values.clear();
  for (const auto& entry : x.entries()) {
    // An index past 32 bits matches no column; saturating keeps it past
    // every matrix's bounds guard.
    indices.push_back(static_cast<std::uint32_t>(std::min<std::size_t>(
        entry.index, std::numeric_limits<std::uint32_t>::max())));
    values.push_back(entry.value);
  }
  return row(indices, values, sq_norm);
}

util::CsrView KernelQueries::csr() const noexcept {
  if (!single_) return csr_;
  return util::CsrView{0, csr_.indices, csr_.values, row_offsets_, {&sq_norm_, 1}};
}

/// Raw dots of every query against every matrix row — also kernel_block's
/// dot phase — through the bitset plane where the matrix has a companion
/// and the query conforms, through the CSR oracle otherwise.
void dot_block(const KernelMatrix& matrix, const KernelQueries& queries,
               std::span<double> out) {
  const std::size_t n = matrix.rows();
  const std::size_t nq = queries.count();
  if (out.size() != n * nq) {
    throw std::invalid_argument{"kernel block: out holds " +
                                std::to_string(out.size()) + " values for " +
                                std::to_string(nq) + " x " +
                                std::to_string(n) + " results"};
  }
  if (n == 0 || nq == 0) return;
  const util::CsrView rows = queries.csr();
  const util::BitsetDotOps* ops = matrix.bitset ? kernel_dispatch() : nullptr;
  // The matrix's CSR rows, decoded from its bitset on first need when it
  // carries none.
  util::CsrView matrix_rows = matrix.csr;
  const auto csr_dots = [&](std::size_t q) {
    if (matrix_rows.row_offsets.empty()) {
      thread_local util::DecodedRows decoded;
      decoded.decode(*matrix.bitset);
      matrix_rows = decoded.view(matrix.csr.cols, matrix.csr.sq_norms);
    }
    matrix_rows.dot_all(rows.row_indices(q), rows.row_values(q),
                        out.subspan(q * n, n));
  };
  if (ops == nullptr) {
    for (std::size_t q = 0; q < nq; ++q) csr_dots(q);
    return;
  }
  const util::BitsetView& bits = *matrix.bitset;
  const std::optional<util::BitsetView>& own = queries.bitset();
  if (nq == 1) {
    // One query: the fused dot_rows route, no block staging.  A row whose
    // source shares the layout IS its encoding; otherwise the shared cache
    // or a per-thread encode supplies one.
    if (own && own->same_layout(bits)) {
      ops->dot_rows(bits, own->row_words(0), own->row_numeric(0), out.data());
      return;
    }
    const util::BitsetQuery* encoded = nullptr;
    thread_local util::BitsetQuery scratch;
    if (EncodedQueryCache* cache = queries.cache()) {
      encoded = cache->get(bits, rows.row_indices(0), rows.row_values(0));
    } else if (scratch.encode(bits, rows.row_indices(0), rows.row_values(0))) {
      encoded = &scratch;
    }
    if (encoded == nullptr) {
      csr_dots(0);
    } else {
      ops->dot_rows(bits, encoded->words.data(), encoded->numeric.data(),
                    out.data());
    }
    return;
  }
  // The blocked mini-popcount-GEMM, then CSR dots for the queries that did
  // not conform — all before any transform, so the obs registry sees a
  // clean dot/transform split.
  thread_local util::BitsetQueryBlock block;
  block.encode(bits, rows, own ? &*own : nullptr);
  util::bitset_dot_block(bits, block, out, *ops);
  if (block.all_ok()) return;
  for (std::size_t q = 0; q < nq; ++q) {
    if (!block.ok(q)) csr_dots(q);
  }
}

void kernel_block(const KernelParams& params, const KernelMatrix& matrix,
                  const KernelQueries& queries, std::span<double> out,
                  TransformMode tier) {
  const KernelMetrics* metrics = kernel_metrics();
  const std::int64_t start = phase_begin(metrics);
  dot_block(matrix, queries, out);
  dot_phase_end(metrics, params.type, start);
  // Transform phase: per-query tiled SIMD transform (kernel_transform
  // records its own per-kernel timer).
  const std::size_t n = matrix.rows();
  const util::CsrView rows = queries.csr();
  for (std::size_t q = 0; q < queries.count(); ++q) {
    kernel_transform(params, matrix.csr.sq_norms, rows.sq_norm(q),
                     out.subspan(q * n, n), tier);
  }
}

std::string describe(const KernelParams& params) {
  std::string out{to_string(params.type)};
  out += "(gamma=" + util::format_double(params.gamma, 4);
  if (params.type == KernelType::kPolynomial) {
    out += ", degree=" + std::to_string(params.degree) +
           ", coef0=" + util::format_double(params.coef0, 2);
  } else if (params.type == KernelType::kSigmoid) {
    out += ", coef0=" + util::format_double(params.coef0, 2);
  }
  out += ")";
  return out;
}

}  // namespace wtp::svm
