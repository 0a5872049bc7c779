// Tiled driver for the fused u± candidate sweep (DESIGN.md §12.4). Each
// backend is one composable i×j block function (backends.h); this driver
// owns the full [0,n)×[0,n) sweep: zero-fill, cache tiling, and the flat
// −1 self-class correction.
//
// Bit-identity across tilings: every candidate j's two accumulators are
// uint64 sums over the streamed classes, associative and commutative mod
// 2^64 — so splitting [0,n)² into blocks in any order lands the same
// columns as the monolithic pass.

#ifndef JINFER_UTIL_SIMD_SWEEP_H_
#define JINFER_UTIL_SIMD_SWEEP_H_

#include <cstddef>
#include <cstdint>

#include "util/simd/dispatch.h"

namespace jinfer {
namespace util {
namespace simd {

/// The full sweep instance: n candidates = n streamed classes over the
/// class-major packed arrays (stride `words`, 1..4). See SweepBlockArgs
/// (backends.h) for the per-pair semantics.
struct SweepArgs {
  const uint64_t* keys = nullptr;
  const uint64_t* sigs = nullptr;
  const uint64_t* cnts = nullptr;
  const uint64_t* negs = nullptr;
  size_t num_negs = 0;
  size_t words = 1;
  size_t n = 0;
};

/// Cache tiling for the sweep. The inner loop streams (words+1)·8 bytes
/// per class (key words + count; the candidate-side signature and key
/// loads are per-tile, amortized); `i_tile` caps an i-block's stream at
/// the L2 budget so a block loaded once serves a whole `j_tile`-candidate
/// output slice, cutting RAM traffic by ~j_tile/lane-width versus the
/// untiled pass. Tiling only engages when n > i_tile — below that the
/// whole stream lives in cache anyway and the monolithic block is used.
struct SweepTiling {
  size_t i_tile;
  size_t j_tile;
};

/// The measured-default tiling for this word width: a 256 KiB i-block
/// stream and 2048-candidate output slices. The constants come from the
/// BM_EntropySweepTiled tile-size sweep recorded in bench/BENCH_core.json
/// (i_tile arg 0 = untiled; the knee sits at the L2-sized block).
SweepTiling DefaultSweepTiling(size_t words);

/// The full u± sweep: zero-fills u_pos/u_neg[0, n), runs the active
/// backend's block kernel under DefaultSweepTiling on the calling thread,
/// then applies the −1 self-class correction per candidate. Results are
/// identical for every backend and tiling. Aborts when args.words is
/// outside 1..4.
void SweepUCounts(const SweepArgs& args, uint64_t* u_pos, uint64_t* u_neg);

namespace internal {
/// Accumulating tiled sweep over the candidate range [jb, je) with an
/// explicit backend and tiling: the body of SweepUCounts, exposed for the
/// tile-size bench and the tiling parity tests. `backend` must be
/// supported (the active one, or one of SupportedKernelBackends()). Does
/// NOT zero-fill and does NOT apply the self-class correction.
void SweepRangeTiled(KernelBackend backend, const SweepArgs& args,
                     size_t jb, size_t je, const SweepTiling& tiling,
                     uint64_t* u_pos, uint64_t* u_neg);
}  // namespace internal

}  // namespace simd
}  // namespace util
}  // namespace jinfer

#endif  // JINFER_UTIL_SIMD_SWEEP_H_
