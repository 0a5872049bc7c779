// Internal: the per-backend kernel tables, one per TU. Only dispatch.cc
// and the backend TUs (scalar tail calls from the vector sweeps) include
// this; everything else goes through ActiveKernelOps().
//
// Every backend instantiates its sweep block at W = 1..4 words only: a
// JoinPredicate is four words (|Ω| ≤ 256, pinned by the store format), so
// a wider sweep is a caller bug and each backend's width switch aborts
// with kSweepWidthMessage.

#ifndef JINFER_UTIL_SIMD_BACKENDS_H_
#define JINFER_UTIL_SIMD_BACKENDS_H_

#include "util/simd/dispatch.h"

namespace jinfer {
namespace util {
namespace simd {
namespace internal {

/// The JINFER_CHECK format every backend's width switch fails with.
inline constexpr char kSweepWidthMessage[] =
    "sweep over %zu words: the kernels cover 1..4 (|Omega| <= 256)";

// kernels_scalar.cc — the reference implementation, always compiled.
extern const KernelOps kScalarOps;
/// The scalar sweep block, callable directly: the vector backends hand it
/// their sub-lane-width candidate tails.
void SweepBlockScalar(const SweepBlockArgs& args);

#if JINFER_SIMD_X86
// kernels_avx2.cc / kernels_avx512.cc — function-level target attributes;
// safe to link anywhere, must not be *called* unless DetectCpuFeatures()
// approves.
extern const KernelOps kAvx2Ops;
extern const KernelOps kAvx512Ops;
#endif

}  // namespace internal
}  // namespace simd
}  // namespace util
}  // namespace jinfer

#endif  // JINFER_UTIL_SIMD_BACKENDS_H_
