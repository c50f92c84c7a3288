// Relaxed-precision exp/tanh (DESIGN §14): the in-repo approximations
// behind TransformMode::kRelaxed.  These trade the libm bit-identity
// contract for vectorizability; the SIMD stamps in transform_backends.cpp
// run the same algorithm eight (or four) lanes at a time with FMA.
//
// Accuracy contract (verified by tests/svm/transform_test.cpp and measured
// by bench/kernel_throughput's relaxed section):
//
//   relaxed_exp   <= 4 ULP of std::exp on [-708, 709] (normal outputs);
//                 subnormal outputs (x < ~-708.4) may double-round once
//                 through the two-step 2^k scaling on the non-AVX-512
//                 paths, which the AVX-512 stamp's vscalefpd avoids.
//   relaxed_tanh  <= 8 ULP of std::tanh everywhere (the 1 - 2s/(1+s)
//                 branch amplifies the exp error by at most ~5x near the
//                 0.35 cutover).
//
// Specials follow libm: exp(NaN)=NaN (payload not preserved), exp(-inf)=0,
// exp(+inf)=inf; tanh(NaN)=NaN, tanh(±inf)=±1, tanh(±0)=±0.
//
// Algorithm (classic Cody–Waite + Taylor, no lookup tables so the SIMD
// stamps need no gathers):
//
//   exp:  k = nearbyint(x·log2 e);  r = x - k·ln2_hi - k·ln2_lo
//         exp(r) = Σ_{i<=13} r^i/i!   (|r| <= ln2/2, tail < 0.1 ULP)
//         result = 2^k · exp(r)       (two-step exponent build, or
//                                      vscalefpd on AVX-512)
//   tanh: |x| <  0.35  →  u = 2|x|, em1 = u·Σ u^i/(i+1)!  (expm1, no
//                         cancellation), tanh = em1/(em1+2)
//         |x| >= 0.35  →  s = exp(-2|x|), tanh = 1 - 2s/(1+s)
//         sign restored with copysign; s underflows to 0 for large |x|,
//         so the ±1 saturation needs no separate branch on SIMD paths.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace wtp::svm::detail {

inline constexpr double kRelaxedLog2e = 1.44269504088896340736;
/// ln 2 split so k*ln2_hi is exact for |k| < 2^11 (Cody–Waite).
inline constexpr double kRelaxedLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kRelaxedLn2Lo = 1.90821492927058770002e-10;
/// exp() overflows above, underflows (to zero) below.
inline constexpr double kRelaxedExpHi = 709.782712893384;
inline constexpr double kRelaxedExpLo = -745.2;
/// Taylor 1/i! for exp(r), |r| <= ln2/2; Horner from c13 down.
inline constexpr double kRelaxedExpC[14] = {
    1.0,                        // 1/0!
    1.0,                        // 1/1!
    1.0 / 2,                    // 1/2!
    1.0 / 6,                    // 1/3!
    1.0 / 24,                   // 1/4!
    1.0 / 120,                  // 1/5!
    1.0 / 720,                  // 1/6!
    1.0 / 5040,                 // 1/7!
    1.0 / 40320,                // 1/8!
    1.0 / 362880,               // 1/9!
    1.0 / 3628800,              // 1/10!
    1.0 / 39916800,             // 1/11!
    1.0 / 479001600,            // 1/12!
    1.0 / 6227020800.0,         // 1/13!
};
/// Taylor 1/(i+1)! for expm1(u)/u, |u| <= 0.7; Horner from c15 down.
inline constexpr double kRelaxedExpm1C[16] = {
    1.0,                        // 1/1!
    1.0 / 2,                    // 1/2!
    1.0 / 6,                    // 1/3!
    1.0 / 24,                   // 1/4!
    1.0 / 120,                  // 1/5!
    1.0 / 720,                  // 1/6!
    1.0 / 5040,                 // 1/7!
    1.0 / 40320,                // 1/8!
    1.0 / 362880,               // 1/9!
    1.0 / 3628800,              // 1/10!
    1.0 / 39916800,             // 1/11!
    1.0 / 479001600,            // 1/12!
    1.0 / 6227020800.0,         // 1/13!
    1.0 / 87178291200.0,        // 1/14!
    1.0 / 1307674368000.0,      // 1/15!
    1.0 / 20922789888000.0,     // 1/16!
};
/// tanh cutover between the expm1 and exp branches.
inline constexpr double kRelaxedTanhSmall = 0.35;

/// 2^k for integer k in [-1075, 1025]: two-step exponent build so each
/// factor stays a normal power of two even when the product is subnormal.
/// Two multiplies double-round once in the subnormal range — covered by the
/// documented bound above.
inline double relaxed_exp2i(double value, int k) {
  const int k1 = k >> 1;
  const int k2 = k - k1;
  const double s1 =
      std::bit_cast<double>(static_cast<std::uint64_t>(k1 + 1023) << 52);
  const double s2 =
      std::bit_cast<double>(static_cast<std::uint64_t>(k2 + 1023) << 52);
  return (value * s1) * s2;
}

/// Scalar stamp of the relaxed exp.  The SIMD stamps mirror this with FMA
/// in the Horner chain, so lane results may differ from this by ~1 ULP.
inline double relaxed_exp(double x) {
  if (std::isnan(x)) return x;
  if (x > kRelaxedExpHi) return std::numeric_limits<double>::infinity();
  if (x < kRelaxedExpLo) return 0.0;
  const double k = std::nearbyint(x * kRelaxedLog2e);
  double r = x - k * kRelaxedLn2Hi;
  r = r - k * kRelaxedLn2Lo;
  double p = kRelaxedExpC[13];
  for (int i = 12; i >= 0; --i) p = p * r + kRelaxedExpC[i];
  return relaxed_exp2i(p, static_cast<int>(k));
}

/// Scalar stamp of the relaxed tanh (see header comment for the split).
inline double relaxed_tanh(double x) {
  if (std::isnan(x)) return x;
  const double a = std::fabs(x);
  double result;
  if (a < kRelaxedTanhSmall) {
    const double u = 2.0 * a;
    double q = kRelaxedExpm1C[15];
    for (int i = 14; i >= 0; --i) q = q * u + kRelaxedExpm1C[i];
    const double em1 = u * q;
    result = em1 / (em1 + 2.0);
  } else {
    const double s = relaxed_exp(-2.0 * a);
    result = 1.0 - 2.0 * s / (1.0 + s);
  }
  return std::copysign(result, x);
}

}  // namespace wtp::svm::detail
