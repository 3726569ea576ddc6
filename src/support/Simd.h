//===- support/Simd.h - Runtime-dispatched column kernels ------*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The vector kernels under the optimizer's batch prediction path
/// (docs/ARCHITECTURE.md, "Optimizer hot path"). Every kernel is a pure
/// element-wise column operation, so each SIMD specialization performs
/// exactly the IEEE operation sequence of the generic loop on every
/// element -- no reassociation, no fused multiply-add -- and is
/// therefore bit-identical to it. That property (plus -ffp-contract=off
/// on the whole build, see the top-level CMakeLists) is what lets the
/// dispatch tier stay decision-irrelevant: OptimizerEquivalenceTests
/// proves generic and specialized scans return identical bits.
///
/// Tier selection: the best tier the CPU supports is picked once at
/// first use. The active tier is exported to telemetry as
/// `optimize.simd_tier` and into bench output.
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_SUPPORT_SIMD_H
#define OPPROX_SUPPORT_SIMD_H

#include <cstddef>

namespace opprox {
namespace simd {

/// Instruction tiers the column kernels dispatch across. Values are
/// stable: they are exported as the `optimize.simd_tier` gauge.
enum class Tier : int {
  Generic = 0, ///< Plain loops; the semantic reference for the others.
  Avx2 = 1,    ///< 4-wide double vectors (x86-64 with AVX2).
  Neon = 2,    ///< 2-wide double vectors (aarch64 baseline).
};

/// The tier every kernel currently dispatches to. Resolved on first use
/// from CPU capability; stable afterwards unless setActiveTier()
/// intervenes.
Tier activeTier();

/// Forces the dispatch tier (equivalence tests pin Generic and diff the
/// results against the specialized tier). Requests the hardware cannot
/// honor clamp to Generic; returns the tier actually installed.
Tier setActiveTier(Tier T);

/// True when this build/CPU can execute \p T's kernels.
bool tierSupported(Tier T);

const char *tierName(Tier T);
/// tierName(activeTier()) -- the string telemetry and benches report.
const char *activeTierName();

/// Dst[i] = A[i] * B[i].
void mul(double *Dst, const double *A, const double *B, size_t N);
/// Out[i] += C * T[i] (two roundings: multiply, then add -- never FMA).
void axpy(double *Out, double C, const double *T, size_t N);
/// Out[i] += C.
void addScalar(double *Out, double C, size_t N);
/// Dst[i] = (Src[i] - Mean) / Scale, the standardization expression.
void standardize(double *Dst, const double *Src, double Mean, double Scale,
                 size_t N);

} // namespace simd
} // namespace opprox

#endif // OPPROX_SUPPORT_SIMD_H
