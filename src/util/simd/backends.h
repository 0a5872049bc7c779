// Internal: the kernel backends. A backend is its sweep-block function,
// one per TU; sweep.cc calls the active backend's (dispatch.h), and the
// vector backends hand their sub-lane-width candidate tails to the scalar
// one. Everything else goes through sweep.h.
//
// Every backend instantiates its sweep block at W = 1..4 words through
// util::WithWidth (util/bitset.h), which aborts on any other width: a
// JoinPredicate is four words (|Ω| ≤ 256, pinned by the store format), so
// a wider sweep is a caller bug.

#ifndef JINFER_UTIL_SIMD_BACKENDS_H_
#define JINFER_UTIL_SIMD_BACKENDS_H_

#include <cstddef>
#include <cstdint>

#include "util/simd/cpu_features.h"

namespace jinfer {
namespace util {
namespace simd {
namespace internal {

/// One i×j block of the fused u± candidate sweep: for every candidate
/// j ∈ [jb, je), accumulate into u_pos[j]/u_neg[j] the certainty-count
/// contributions of the streamed classes i ∈ [ib, ie):
///
///   u_neg[j] += Σ cnt[i] · [key_i ⊆ sig_j]                      (Lemma 3.4)
///   u_pos[j] += Σ cnt[i] · [key_i∩sig_j = key_j ∨
///                           ∃g: key_i∩sig_j ⊆ neg_g]     (Lemmas 3.3, 3.4)
///
/// over the class-major packed arrays of InferenceState (stride `words`).
/// Accumulating (`+=`) rather than writing makes blocks composable: the
/// tiled driver splits [0, n)×[0, n) into cache-sized blocks in any order
/// and the mod-2^64 sums land bit-identical to the single-block sweep.
/// The caller zero-fills the columns and applies the flat −1 self-class
/// correction once per candidate (see sweep.h).
struct SweepBlockArgs {
  const uint64_t* keys = nullptr;  ///< class-major cached keys, stride words
  const uint64_t* sigs = nullptr;  ///< class-major signatures, stride words
  const uint64_t* cnts = nullptr;  ///< per-class tuple counts
  const uint64_t* negs = nullptr;  ///< num_negs × words negative witnesses
  size_t num_negs = 0;
  size_t words = 1;
  size_t jb = 0, je = 0;  ///< candidate (output) range
  size_t ib = 0, ie = 0;  ///< streamed class (input) range
  uint64_t* u_pos = nullptr;  ///< full columns; the block adds into [jb, je)
  uint64_t* u_neg = nullptr;
};

/// kernels_scalar.cc — the reference backend, always compiled.
void SweepBlockScalar(const SweepBlockArgs& args);

#if JINFER_SIMD_X86
/// kernels_avx2.cc / kernels_avx512.cc — function-level target attributes;
/// safe to link anywhere, must not be *called* unless DetectCpuFeatures()
/// approves.
void SweepBlockAvx2(const SweepBlockArgs& args);
void SweepBlockAvx512(const SweepBlockArgs& args);
#endif

}  // namespace internal
}  // namespace simd
}  // namespace util
}  // namespace jinfer

#endif  // JINFER_UTIL_SIMD_BACKENDS_H_
