//===- support/Simd.cpp ---------------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/Simd.h"
#include <atomic>

#if defined(__x86_64__) || defined(__i386__)
#define OPPROX_SIMD_HAVE_AVX2 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define OPPROX_SIMD_HAVE_NEON 1
#include <arm_neon.h>
#endif

using namespace opprox;
using simd::Tier;

//===----------------------------------------------------------------------===//
// Generic kernels: the semantic reference. Plain element-wise loops the
// specializations must match bit for bit (same per-element operation
// sequence; -ffp-contract=off keeps the compiler from fusing the axpy
// multiply-add on targets that have FMA).
//===----------------------------------------------------------------------===//

namespace {

void mulGeneric(double *Dst, const double *A, const double *B, size_t N) {
  for (size_t I = 0; I < N; ++I)
    Dst[I] = A[I] * B[I];
}

void axpyGeneric(double *Out, double C, const double *T, size_t N) {
  for (size_t I = 0; I < N; ++I)
    Out[I] += C * T[I];
}

void addScalarGeneric(double *Out, double C, size_t N) {
  for (size_t I = 0; I < N; ++I)
    Out[I] += C;
}

void standardizeGeneric(double *Dst, const double *Src, double Mean,
                        double Scale, size_t N) {
  for (size_t I = 0; I < N; ++I)
    Dst[I] = (Src[I] - Mean) / Scale;
}

//===----------------------------------------------------------------------===//
// AVX2: 4-wide double lanes. Explicit mul/add/sub/div intrinsics only --
// intrinsics are never contracted, so each lane performs exactly the
// generic loop's two-rounding sequence. Tails fall through to the same
// scalar expressions.
//===----------------------------------------------------------------------===//

#ifdef OPPROX_SIMD_HAVE_AVX2

__attribute__((target("avx2"))) void mulAvx2(double *Dst, const double *A,
                                             const double *B, size_t N) {
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    __m256d Va = _mm256_loadu_pd(A + I);
    __m256d Vb = _mm256_loadu_pd(B + I);
    _mm256_storeu_pd(Dst + I, _mm256_mul_pd(Va, Vb));
  }
  for (; I < N; ++I)
    Dst[I] = A[I] * B[I];
}

__attribute__((target("avx2"))) void axpyAvx2(double *Out, double C,
                                              const double *T, size_t N) {
  __m256d Vc = _mm256_set1_pd(C);
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    __m256d Vo = _mm256_loadu_pd(Out + I);
    __m256d Vt = _mm256_loadu_pd(T + I);
    // mul then add, matching the unfused generic expression.
    _mm256_storeu_pd(Out + I, _mm256_add_pd(Vo, _mm256_mul_pd(Vc, Vt)));
  }
  for (; I < N; ++I)
    Out[I] += C * T[I];
}

__attribute__((target("avx2"))) void addScalarAvx2(double *Out, double C,
                                                   size_t N) {
  __m256d Vc = _mm256_set1_pd(C);
  size_t I = 0;
  for (; I + 4 <= N; I += 4)
    _mm256_storeu_pd(Out + I, _mm256_add_pd(_mm256_loadu_pd(Out + I), Vc));
  for (; I < N; ++I)
    Out[I] += C;
}

__attribute__((target("avx2"))) void standardizeAvx2(double *Dst,
                                                     const double *Src,
                                                     double Mean, double Scale,
                                                     size_t N) {
  __m256d Vm = _mm256_set1_pd(Mean);
  __m256d Vs = _mm256_set1_pd(Scale);
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    __m256d Vx = _mm256_loadu_pd(Src + I);
    _mm256_storeu_pd(Dst + I, _mm256_div_pd(_mm256_sub_pd(Vx, Vm), Vs));
  }
  for (; I < N; ++I)
    Dst[I] = (Src[I] - Mean) / Scale;
}

#endif // OPPROX_SIMD_HAVE_AVX2

//===----------------------------------------------------------------------===//
// NEON: 2-wide double lanes, baseline on aarch64. vmulq/vaddq are the
// unfused forms (vfmaq would be the fused one and is deliberately not
// used).
//===----------------------------------------------------------------------===//

#ifdef OPPROX_SIMD_HAVE_NEON

void mulNeon(double *Dst, const double *A, const double *B, size_t N) {
  size_t I = 0;
  for (; I + 2 <= N; I += 2)
    vst1q_f64(Dst + I, vmulq_f64(vld1q_f64(A + I), vld1q_f64(B + I)));
  for (; I < N; ++I)
    Dst[I] = A[I] * B[I];
}

void axpyNeon(double *Out, double C, const double *T, size_t N) {
  float64x2_t Vc = vdupq_n_f64(C);
  size_t I = 0;
  for (; I + 2 <= N; I += 2)
    vst1q_f64(Out + I,
              vaddq_f64(vld1q_f64(Out + I), vmulq_f64(Vc, vld1q_f64(T + I))));
  for (; I < N; ++I)
    Out[I] += C * T[I];
}

void addScalarNeon(double *Out, double C, size_t N) {
  float64x2_t Vc = vdupq_n_f64(C);
  size_t I = 0;
  for (; I + 2 <= N; I += 2)
    vst1q_f64(Out + I, vaddq_f64(vld1q_f64(Out + I), Vc));
  for (; I < N; ++I)
    Out[I] += C;
}

void standardizeNeon(double *Dst, const double *Src, double Mean, double Scale,
                     size_t N) {
  float64x2_t Vm = vdupq_n_f64(Mean);
  float64x2_t Vs = vdupq_n_f64(Scale);
  size_t I = 0;
  for (; I + 2 <= N; I += 2)
    vst1q_f64(Dst + I, vdivq_f64(vsubq_f64(vld1q_f64(Src + I), Vm), Vs));
  for (; I < N; ++I)
    Dst[I] = (Src[I] - Mean) / Scale;
}

#endif // OPPROX_SIMD_HAVE_NEON

//===----------------------------------------------------------------------===//
// Tier resolution and dispatch.
//===----------------------------------------------------------------------===//

Tier detectBestTier() {
#ifdef OPPROX_SIMD_HAVE_AVX2
  if (__builtin_cpu_supports("avx2"))
    return Tier::Avx2;
#endif
#ifdef OPPROX_SIMD_HAVE_NEON
  return Tier::Neon;
#endif
  return Tier::Generic;
}

/// The installed tier, lazily resolved. -1 means "not yet resolved";
/// resolution races are benign (every racer installs the same value).
std::atomic<int> ActiveTier{-1};

} // namespace

bool simd::tierSupported(Tier T) {
  switch (T) {
  case Tier::Generic:
    return true;
  case Tier::Avx2:
#ifdef OPPROX_SIMD_HAVE_AVX2
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
  case Tier::Neon:
#ifdef OPPROX_SIMD_HAVE_NEON
    return true;
#else
    return false;
#endif
  }
  return false;
}

Tier simd::activeTier() {
  int T = ActiveTier.load(std::memory_order_relaxed);
  if (T < 0) {
    T = static_cast<int>(detectBestTier());
    ActiveTier.store(T, std::memory_order_relaxed);
  }
  return static_cast<Tier>(T);
}

Tier simd::setActiveTier(Tier T) {
  if (!tierSupported(T))
    T = Tier::Generic;
  ActiveTier.store(static_cast<int>(T), std::memory_order_relaxed);
  return T;
}

const char *simd::tierName(Tier T) {
  switch (T) {
  case Tier::Generic:
    return "generic";
  case Tier::Avx2:
    return "avx2";
  case Tier::Neon:
    return "neon";
  }
  return "generic";
}

const char *simd::activeTierName() { return tierName(activeTier()); }

void simd::mul(double *Dst, const double *A, const double *B, size_t N) {
  switch (activeTier()) {
#ifdef OPPROX_SIMD_HAVE_AVX2
  case Tier::Avx2:
    return mulAvx2(Dst, A, B, N);
#endif
#ifdef OPPROX_SIMD_HAVE_NEON
  case Tier::Neon:
    return mulNeon(Dst, A, B, N);
#endif
  default:
    return mulGeneric(Dst, A, B, N);
  }
}

void simd::axpy(double *Out, double C, const double *T, size_t N) {
  switch (activeTier()) {
#ifdef OPPROX_SIMD_HAVE_AVX2
  case Tier::Avx2:
    return axpyAvx2(Out, C, T, N);
#endif
#ifdef OPPROX_SIMD_HAVE_NEON
  case Tier::Neon:
    return axpyNeon(Out, C, T, N);
#endif
  default:
    return axpyGeneric(Out, C, T, N);
  }
}

void simd::addScalar(double *Out, double C, size_t N) {
  switch (activeTier()) {
#ifdef OPPROX_SIMD_HAVE_AVX2
  case Tier::Avx2:
    return addScalarAvx2(Out, C, N);
#endif
#ifdef OPPROX_SIMD_HAVE_NEON
  case Tier::Neon:
    return addScalarNeon(Out, C, N);
#endif
  default:
    return addScalarGeneric(Out, C, N);
  }
}

void simd::standardize(double *Dst, const double *Src, double Mean,
                       double Scale, size_t N) {
  switch (activeTier()) {
#ifdef OPPROX_SIMD_HAVE_AVX2
  case Tier::Avx2:
    return standardizeAvx2(Dst, Src, Mean, Scale, N);
#endif
#ifdef OPPROX_SIMD_HAVE_NEON
  case Tier::Neon:
    return standardizeNeon(Dst, Src, Mean, Scale, N);
#endif
  default:
    return standardizeGeneric(Dst, Src, Mean, Scale, N);
  }
}
