// SIMD kernel-transform backends behind the dispatch seam (DESIGN §14).
//
// Each backend implements detail::TransformOps — the in-place per-element
// transforms that turn a tile of raw dot products into kernel values — with
// per-function target attributes, so one translation unit compiled without
// global -mavx* flags carries every variant and kernel.cpp's dispatcher
// picks one at startup via __builtin_cpu_supports (same machinery and the
// same WTP_KERNEL_BACKEND override as the bitset dot backends).
//
// Two tiers per backend:
//
//   EXACT (rbf_exp_args / affine_args / poly_transform): pure mul/add/max
//   arithmetic mirroring svm/kernel_scalar_body.h expression for
//   expression, with fp-contract pinned OFF — GCC's vector mul/add
//   intrinsics are plain operators and would otherwise fuse into vfmadd,
//   single-rounding products the baseline-ISA scalar oracle rounds twice.
//   VMAXPD(u, 0) replays the scalar clamp `u > 0.0 ? u : 0.0` exactly:
//   it returns the second operand when the first is NaN (NaN → 0, like the
//   ternary) and for ±0.0 vs +0.0 returns the second operand (+0.0), which
//   is also what the ternary produces.  powi is stamped lane-parallel from
//   svm/powi_body.inc — the exponent is uniform across lanes, so every
//   lane runs the scalar stamp's exact multiply sequence.  Every exact-tier
//   output is bit-identical to the scalar backend by construction; the
//   dispatch suite enforces it.
//
//   RELAXED (exp_inplace / tanh_inplace): the vectorized exp/tanh stamps of
//   svm/relaxed_math.h (Cody–Waite + Taylor), WITH FMA — these only run
//   under TransformMode::kRelaxed, whose contract is the documented ULP
//   bound, not bit-identity.  The AVX-512 stamp scales by 2^k with
//   vscalefpd (exact, handles subnormal outputs in one rounding); AVX2 and
//   scalar build 2^k in two exponent-bit steps.
//
//   scalar — kernel_scalar_body.h / relaxed_math.h loops (the reference).
//   avx2   — 4 lanes; exact tier needs avx2 only, relaxed tier needs FMA
//            too, so supported() checks both.
//   avx512 — 8 lanes (AVX-512F only; no VPOPCNTDQ requirement here, though
//            every AVX-512 host we target has both).
#include "svm/kernel_backends.h"

#include <algorithm>
#include <array>
#include <cstddef>

#include "svm/kernel_scalar_body.h"
#include "svm/relaxed_math.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define WTP_X86 1
#else
#define WTP_X86 0
#endif

namespace wtp::svm::detail {

namespace {

using std::size_t;

// ---------------------------------------------------------------- scalar --

bool always_supported() { return true; }

void sc_rbf_exp_args(double gamma, double x_sqnorm, const double* sq_norms,
                     double* inout, size_t n) {
  for (size_t j = 0; j < n; ++j) {
    inout[j] = rbf_exp_arg(gamma, x_sqnorm, sq_norms[j], inout[j]);
  }
}

void sc_affine_args(double gamma, double coef0, double* inout, size_t n) {
  for (size_t j = 0; j < n; ++j) {
    inout[j] = affine_arg(gamma, coef0, inout[j]);
  }
}

void sc_poly_transform(double gamma, double coef0, int degree, double* inout,
                       size_t n) {
  for (size_t j = 0; j < n; ++j) {
    inout[j] = poly_element(gamma, coef0, degree, inout[j]);
  }
}

void sc_exp_inplace(double* inout, size_t n) {
  for (size_t j = 0; j < n; ++j) inout[j] = relaxed_exp(inout[j]);
}

void sc_tanh_inplace(double* inout, size_t n) {
  for (size_t j = 0; j < n; ++j) inout[j] = relaxed_tanh(inout[j]);
}

const TransformOps kScalarTransformOps{
    "scalar",         &sc_rbf_exp_args, &sc_affine_args,
    &sc_poly_transform, &sc_exp_inplace, &sc_tanh_inplace};

#if WTP_X86

// ------------------------------------------------------------ avx2 exact --

// Exact tier: fp-contract must stay off (see file comment).
#define WTP_TX2_EXACT \
  __attribute__((target("avx2"), optimize("-ffp-contract=off")))

#define WTP_POWI_FN powi4
#define WTP_POWI_VEC __m256d
#define WTP_POWI_ONE _mm256_set1_pd(1.0)
#define WTP_POWI_MUL(a, b) _mm256_mul_pd((a), (b))
#define WTP_POWI_ATTR WTP_TX2_EXACT
#include "svm/powi_body.inc"
#undef WTP_POWI_FN
#undef WTP_POWI_VEC
#undef WTP_POWI_ONE
#undef WTP_POWI_MUL
#undef WTP_POWI_ATTR

WTP_TX2_EXACT void avx2_rbf_exp_args(double gamma, double x_sqnorm,
                                     const double* sq_norms, double* inout,
                                     size_t n) {
  const __m256d vng = _mm256_set1_pd(-gamma);
  const __m256d vx = _mm256_set1_pd(x_sqnorm);
  const __m256d vtwo = _mm256_set1_pd(2.0);
  const __m256d vzero = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d dot = _mm256_loadu_pd(inout + j);
    const __m256d ysq = _mm256_loadu_pd(sq_norms + j);
    // (x² + y²) - 2·dot, then max(·, 0): same order, same clamp semantics
    // as rbf_exp_arg (NaN and -0.0 both resolve to +0.0 under VMAXPD).
    const __m256d sq_dist = _mm256_sub_pd(_mm256_add_pd(vx, ysq),
                                          _mm256_mul_pd(vtwo, dot));
    _mm256_storeu_pd(inout + j,
                     _mm256_mul_pd(vng, _mm256_max_pd(sq_dist, vzero)));
  }
  for (; j < n; ++j) {
    inout[j] = rbf_exp_arg(gamma, x_sqnorm, sq_norms[j], inout[j]);
  }
}

WTP_TX2_EXACT void avx2_affine_args(double gamma, double coef0, double* inout,
                                    size_t n) {
  const __m256d vg = _mm256_set1_pd(gamma);
  const __m256d vc = _mm256_set1_pd(coef0);
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d dot = _mm256_loadu_pd(inout + j);
    _mm256_storeu_pd(inout + j, _mm256_add_pd(_mm256_mul_pd(vg, dot), vc));
  }
  for (; j < n; ++j) inout[j] = affine_arg(gamma, coef0, inout[j]);
}

WTP_TX2_EXACT void avx2_poly_transform(double gamma, double coef0, int degree,
                                       double* inout, size_t n) {
  const __m256d vg = _mm256_set1_pd(gamma);
  const __m256d vc = _mm256_set1_pd(coef0);
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d dot = _mm256_loadu_pd(inout + j);
    const __m256d base = _mm256_add_pd(_mm256_mul_pd(vg, dot), vc);
    _mm256_storeu_pd(inout + j, powi4(base, degree));
  }
  for (; j < n; ++j) inout[j] = poly_element(gamma, coef0, degree, inout[j]);
}

// ---------------------------------------------------------- avx2 relaxed --

// Relaxed tier: FMA on purpose — the contract is the ULP bound, and fused
// Horner steps both tighten and speed up the polynomial.
#define WTP_TX2_RELAXED __attribute__((target("avx2,fma")))

/// Vector stamp of relaxed_exp (relaxed_math.h).  Specials: the k used for
/// scaling is clamped to the representable exponent range, but r inherits
/// NaN from x, and the final blends force x > overflow → +inf and
/// x < underflow → 0 (which also covers ±inf inputs).
WTP_TX2_RELAXED inline __m256d avx2_exp4(__m256d x) {
  const __m256d vk = _mm256_round_pd(
      _mm256_mul_pd(x, _mm256_set1_pd(kRelaxedLog2e)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  // Clamp so the exponent-bit build below stays in range even for inputs
  // past the overflow/underflow cutoffs (those lanes are overwritten by the
  // blends at the end).
  const __m256d k = _mm256_max_pd(_mm256_min_pd(vk, _mm256_set1_pd(1025.0)),
                                  _mm256_set1_pd(-1075.0));
  __m256d r = _mm256_fnmadd_pd(k, _mm256_set1_pd(kRelaxedLn2Hi), x);
  r = _mm256_fnmadd_pd(k, _mm256_set1_pd(kRelaxedLn2Lo), r);
  __m256d p = _mm256_set1_pd(kRelaxedExpC[13]);
  for (int i = 12; i >= 0; --i) {
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(kRelaxedExpC[i]));
  }
  // 2^k in two exponent-bit steps (relaxed_exp2i): k1 = k>>1 rounds toward
  // -inf, so both halves stay in [-538, 513] — normal powers of two.
  const __m128i ik = _mm256_cvtpd_epi32(k);
  const __m128i ik1 = _mm_srai_epi32(ik, 1);
  const __m128i ik2 = _mm_sub_epi32(ik, ik1);
  const __m128i bias = _mm_set1_epi32(1023);
  const __m256d s1 = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_cvtepi32_epi64(_mm_add_epi32(ik1, bias)), 52));
  const __m256d s2 = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_cvtepi32_epi64(_mm_add_epi32(ik2, bias)), 52));
  __m256d result = _mm256_mul_pd(_mm256_mul_pd(p, s1), s2);
  result = _mm256_blendv_pd(
      result, _mm256_set1_pd(std::numeric_limits<double>::infinity()),
      _mm256_cmp_pd(x, _mm256_set1_pd(kRelaxedExpHi), _CMP_GT_OQ));
  result = _mm256_blendv_pd(
      result, _mm256_setzero_pd(),
      _mm256_cmp_pd(x, _mm256_set1_pd(kRelaxedExpLo), _CMP_LT_OQ));
  return result;  // NaN x: both compares are false, result stays NaN
}

/// Vector stamp of relaxed_tanh: both branches are computed for all lanes
/// and blended on |x| < 0.35 (no divergent control flow).  exp(-2|x|)
/// underflows to 0 for large |x|, so ±1 saturation is free; sign is
/// restored by OR-ing the sign bit back (both branch results are >= 0).
WTP_TX2_RELAXED inline __m256d avx2_tanh4(__m256d x) {
  const __m256d signbit = _mm256_set1_pd(-0.0);
  const __m256d sign = _mm256_and_pd(x, signbit);
  const __m256d a = _mm256_andnot_pd(signbit, x);
  const __m256d u = _mm256_mul_pd(_mm256_set1_pd(2.0), a);
  __m256d q = _mm256_set1_pd(kRelaxedExpm1C[15]);
  for (int i = 14; i >= 0; --i) {
    q = _mm256_fmadd_pd(q, u, _mm256_set1_pd(kRelaxedExpm1C[i]));
  }
  const __m256d em1 = _mm256_mul_pd(u, q);
  const __m256d small =
      _mm256_div_pd(em1, _mm256_add_pd(em1, _mm256_set1_pd(2.0)));
  const __m256d s = avx2_exp4(_mm256_mul_pd(_mm256_set1_pd(-2.0), a));
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d big = _mm256_sub_pd(
      one, _mm256_div_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), s),
                         _mm256_add_pd(one, s)));
  // NaN a: compare is false → big branch, which is NaN through s.
  const __m256d result = _mm256_blendv_pd(
      big, small, _mm256_cmp_pd(a, _mm256_set1_pd(kRelaxedTanhSmall),
                                _CMP_LT_OQ));
  return _mm256_or_pd(result, sign);
}

/// Padded tail: the last n - j < 4 elements go through the same vector
/// stamp as the body (dead lanes hold 0.0), so a value's relaxed result does
/// not depend on where it sits in the array — the AVX-512 masked tail's
/// property — by construction, rather than by the compiler contracting an
/// inlined scalar stamp into the same FMAs, which an unoptimized build does
/// not do.
WTP_TX2_RELAXED void avx2_exp_inplace(double* inout, size_t n) {
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(inout + j, avx2_exp4(_mm256_loadu_pd(inout + j)));
  }
  if (j < n) {
    alignas(32) double tail[4] = {0.0, 0.0, 0.0, 0.0};
    std::copy(inout + j, inout + n, tail);
    _mm256_store_pd(tail, avx2_exp4(_mm256_load_pd(tail)));
    std::copy(tail, tail + (n - j), inout + j);
  }
}

WTP_TX2_RELAXED void avx2_tanh_inplace(double* inout, size_t n) {
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(inout + j, avx2_tanh4(_mm256_loadu_pd(inout + j)));
  }
  if (j < n) {
    alignas(32) double tail[4] = {0.0, 0.0, 0.0, 0.0};
    std::copy(inout + j, inout + n, tail);
    _mm256_store_pd(tail, avx2_tanh4(_mm256_load_pd(tail)));
    std::copy(tail, tail + (n - j), inout + j);
  }
}

bool avx2_transform_supported() {
  // The relaxed tier's stamps use FMA; require it up front rather than
  // splitting the backend in two (every AVX2 CPU since Haswell has FMA).
  return __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("fma") != 0;
}

const TransformOps kAvx2TransformOps{
    "avx2",             &avx2_rbf_exp_args, &avx2_affine_args,
    &avx2_poly_transform, &avx2_exp_inplace, &avx2_tanh_inplace};

// ---------------------------------------------------------- avx512 exact --

// GCC 12's maskz loads can trip -Wmaybe-uninitialized the same way the dot
// backends do; silence just this section.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

// avx512f implies FMA, so the exact tier pins fp-contract=off here too.
#define WTP_TX512_EXACT \
  __attribute__((target("avx512f"), optimize("-ffp-contract=off")))

#define WTP_POWI_FN powi8
#define WTP_POWI_VEC __m512d
#define WTP_POWI_ONE _mm512_set1_pd(1.0)
#define WTP_POWI_MUL(a, b) _mm512_mul_pd((a), (b))
#define WTP_POWI_ATTR WTP_TX512_EXACT
#include "svm/powi_body.inc"
#undef WTP_POWI_FN
#undef WTP_POWI_VEC
#undef WTP_POWI_ONE
#undef WTP_POWI_MUL
#undef WTP_POWI_ATTR

WTP_TX512_EXACT void avx512_rbf_exp_args(double gamma, double x_sqnorm,
                                         const double* sq_norms, double* inout,
                                         size_t n) {
  const __m512d vng = _mm512_set1_pd(-gamma);
  const __m512d vx = _mm512_set1_pd(x_sqnorm);
  const __m512d vtwo = _mm512_set1_pd(2.0);
  const __m512d vzero = _mm512_setzero_pd();
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512d dot = _mm512_loadu_pd(inout + j);
    const __m512d ysq = _mm512_loadu_pd(sq_norms + j);
    const __m512d sq_dist =
        _mm512_sub_pd(_mm512_add_pd(vx, ysq), _mm512_mul_pd(vtwo, dot));
    _mm512_storeu_pd(inout + j,
                     _mm512_mul_pd(vng, _mm512_max_pd(sq_dist, vzero)));
  }
  if (j < n) {
    const __mmask8 tail = static_cast<__mmask8>((1U << (n - j)) - 1);
    const __m512d dot = _mm512_maskz_loadu_pd(tail, inout + j);
    const __m512d ysq = _mm512_maskz_loadu_pd(tail, sq_norms + j);
    const __m512d sq_dist =
        _mm512_sub_pd(_mm512_add_pd(vx, ysq), _mm512_mul_pd(vtwo, dot));
    _mm512_mask_storeu_pd(inout + j, tail,
                          _mm512_mul_pd(vng, _mm512_max_pd(sq_dist, vzero)));
  }
}

WTP_TX512_EXACT void avx512_affine_args(double gamma, double coef0,
                                        double* inout, size_t n) {
  const __m512d vg = _mm512_set1_pd(gamma);
  const __m512d vc = _mm512_set1_pd(coef0);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512d dot = _mm512_loadu_pd(inout + j);
    _mm512_storeu_pd(inout + j, _mm512_add_pd(_mm512_mul_pd(vg, dot), vc));
  }
  if (j < n) {
    const __mmask8 tail = static_cast<__mmask8>((1U << (n - j)) - 1);
    const __m512d dot = _mm512_maskz_loadu_pd(tail, inout + j);
    _mm512_mask_storeu_pd(inout + j, tail,
                          _mm512_add_pd(_mm512_mul_pd(vg, dot), vc));
  }
}

WTP_TX512_EXACT void avx512_poly_transform(double gamma, double coef0,
                                           int degree, double* inout,
                                           size_t n) {
  const __m512d vg = _mm512_set1_pd(gamma);
  const __m512d vc = _mm512_set1_pd(coef0);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512d dot = _mm512_loadu_pd(inout + j);
    const __m512d base = _mm512_add_pd(_mm512_mul_pd(vg, dot), vc);
    _mm512_storeu_pd(inout + j, powi8(base, degree));
  }
  if (j < n) {
    const __mmask8 tail = static_cast<__mmask8>((1U << (n - j)) - 1);
    const __m512d dot = _mm512_maskz_loadu_pd(tail, inout + j);
    const __m512d base = _mm512_add_pd(_mm512_mul_pd(vg, dot), vc);
    _mm512_mask_storeu_pd(inout + j, tail, powi8(base, degree));
  }
}

// -------------------------------------------------------- avx512 relaxed --

#define WTP_TX512_RELAXED __attribute__((target("avx512f")))

/// Vector stamp of relaxed_exp on 8 lanes.  vscalefpd replaces the two-step
/// exponent build: it computes p * 2^k exactly in one rounding (subnormal
/// outputs included) and saturates for huge |k|, so no clamp on k is needed
/// — the overflow/underflow masks still force the libm-special results.
WTP_TX512_RELAXED inline __m512d avx512_exp8(__m512d x) {
  const __m512d k = _mm512_roundscale_pd(
      _mm512_mul_pd(x, _mm512_set1_pd(kRelaxedLog2e)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m512d r = _mm512_fnmadd_pd(k, _mm512_set1_pd(kRelaxedLn2Hi), x);
  r = _mm512_fnmadd_pd(k, _mm512_set1_pd(kRelaxedLn2Lo), r);
  __m512d p = _mm512_set1_pd(kRelaxedExpC[13]);
  for (int i = 12; i >= 0; --i) {
    p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(kRelaxedExpC[i]));
  }
  __m512d result = _mm512_scalef_pd(p, k);
  result = _mm512_mask_mov_pd(
      result, _mm512_cmp_pd_mask(x, _mm512_set1_pd(kRelaxedExpHi), _CMP_GT_OQ),
      _mm512_set1_pd(std::numeric_limits<double>::infinity()));
  result = _mm512_mask_mov_pd(
      result, _mm512_cmp_pd_mask(x, _mm512_set1_pd(kRelaxedExpLo), _CMP_LT_OQ),
      _mm512_setzero_pd());
  return result;  // NaN x: both masks are off, result stays NaN via r
}

WTP_TX512_RELAXED inline __m512d avx512_tanh8(__m512d x) {
  // Sign-bit splitting in the integer domain: vandpd/vorpd are AVX-512DQ,
  // which the avx512f-only target here does not include.
  const __m512i sign_mask = _mm512_set1_epi64(
      static_cast<long long>(0x8000000000000000ULL));
  const __m512d a = _mm512_castsi512_pd(
      _mm512_andnot_si512(sign_mask, _mm512_castpd_si512(x)));
  const __m512d u = _mm512_mul_pd(_mm512_set1_pd(2.0), a);
  __m512d q = _mm512_set1_pd(kRelaxedExpm1C[15]);
  for (int i = 14; i >= 0; --i) {
    q = _mm512_fmadd_pd(q, u, _mm512_set1_pd(kRelaxedExpm1C[i]));
  }
  const __m512d em1 = _mm512_mul_pd(u, q);
  const __m512d small =
      _mm512_div_pd(em1, _mm512_add_pd(em1, _mm512_set1_pd(2.0)));
  const __m512d s = avx512_exp8(_mm512_mul_pd(_mm512_set1_pd(-2.0), a));
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d big = _mm512_sub_pd(
      one, _mm512_div_pd(_mm512_mul_pd(_mm512_set1_pd(2.0), s),
                         _mm512_add_pd(one, s)));
  const __mmask8 is_small =
      _mm512_cmp_pd_mask(a, _mm512_set1_pd(kRelaxedTanhSmall), _CMP_LT_OQ);
  const __m512d result = _mm512_mask_mov_pd(big, is_small, small);
  const __m512i sign = _mm512_and_si512(_mm512_castpd_si512(x), sign_mask);
  return _mm512_castsi512_pd(
      _mm512_or_si512(_mm512_castpd_si512(result), sign));
}

WTP_TX512_RELAXED void avx512_exp_inplace(double* inout, size_t n) {
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm512_storeu_pd(inout + j, avx512_exp8(_mm512_loadu_pd(inout + j)));
  }
  if (j < n) {
    // Masked tail: dead lanes load 0.0, compute exp(0) = 1, and are masked
    // off on the store — same relaxed results as a full vector would give.
    const __mmask8 tail = static_cast<__mmask8>((1U << (n - j)) - 1);
    _mm512_mask_storeu_pd(inout + j, tail,
                          avx512_exp8(_mm512_maskz_loadu_pd(tail, inout + j)));
  }
}

WTP_TX512_RELAXED void avx512_tanh_inplace(double* inout, size_t n) {
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm512_storeu_pd(inout + j, avx512_tanh8(_mm512_loadu_pd(inout + j)));
  }
  if (j < n) {
    const __mmask8 tail = static_cast<__mmask8>((1U << (n - j)) - 1);
    _mm512_mask_storeu_pd(inout + j, tail,
                          avx512_tanh8(_mm512_maskz_loadu_pd(tail, inout + j)));
  }
}

#pragma GCC diagnostic pop

bool avx512_transform_supported() {
  return __builtin_cpu_supports("avx512f") != 0;
}

const TransformOps kAvx512TransformOps{
    "avx512",             &avx512_rbf_exp_args, &avx512_affine_args,
    &avx512_poly_transform, &avx512_exp_inplace, &avx512_tanh_inplace};

#endif  // WTP_X86

}  // namespace

std::span<const TransformBackend> transform_backends() noexcept {
#if WTP_X86
  static const std::array<TransformBackend, 3> kBackends{{
      {&kAvx512TransformOps, &avx512_transform_supported},
      {&kAvx2TransformOps, &avx2_transform_supported},
      {&kScalarTransformOps, &always_supported},
  }};
#else
  static const std::array<TransformBackend, 1> kBackends{{
      {&kScalarTransformOps, &always_supported},
  }};
#endif
  return kBackends;
}

const TransformOps& scalar_transform_ops() noexcept {
  return kScalarTransformOps;
}

}  // namespace wtp::svm::detail
