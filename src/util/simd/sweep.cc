#include "util/simd/sweep.h"

#include <algorithm>

#include "util/check.h"
#include "util/simd/backends.h"

namespace jinfer {
namespace util {
namespace simd {

namespace {

/// L2 budget for one streamed i-block (keys + counts). 256 KiB leaves
/// headroom in a typical 512 KiB–1.25 MiB private L2 for the output slice
/// and the candidate-side loads.
constexpr size_t kSweepStreamBudgetBytes = 256 * 1024;

using SweepBlockFn = void (*)(const internal::SweepBlockArgs&);

/// A backend is its sweep-block function. Calling an unsupported vector
/// backend's would execute instructions the CPU lacks.
SweepBlockFn SweepBlockOf(KernelBackend backend) {
  JINFER_DCHECK(KernelBackendSupported(backend),
                "kernel backend %s unsupported on this CPU/build",
                KernelBackendName(backend));
  switch (backend) {
    case KernelBackend::kScalar:
      return &internal::SweepBlockScalar;
#if JINFER_SIMD_X86
    case KernelBackend::kAvx2:
      return &internal::SweepBlockAvx2;
    case KernelBackend::kAvx512:
      return &internal::SweepBlockAvx512;
#endif
    default:
      JINFER_CHECK(false, "kernel backend %s not compiled into this binary",
                   KernelBackendName(backend));
  }
}

}  // namespace

SweepTiling DefaultSweepTiling(size_t words) {
  size_t bytes_per_class = (words + 1) * sizeof(uint64_t);
  size_t i_tile = kSweepStreamBudgetBytes / bytes_per_class;
  return SweepTiling{std::max<size_t>(i_tile, 1024), 2048};
}

namespace internal {

void SweepRangeTiled(KernelBackend backend, const SweepArgs& args,
                     size_t jb, size_t je, const SweepTiling& tiling,
                     uint64_t* u_pos, uint64_t* u_neg) {
  const SweepBlockFn sweep_block = SweepBlockOf(backend);
  SweepBlockArgs block;
  block.keys = args.keys;
  block.sigs = args.sigs;
  block.cnts = args.cnts;
  block.negs = args.negs;
  block.num_negs = args.num_negs;
  block.words = args.words;
  block.u_pos = u_pos;
  block.u_neg = u_neg;
  const size_t n = args.n;
  if (n <= tiling.i_tile) {
    // The whole class stream fits the cache budget: one monolithic block.
    block.jb = jb;
    block.je = je;
    block.ib = 0;
    block.ie = n;
    sweep_block(block);
    return;
  }
  // j-tile outer so each output slice stays resident; i-blocks inner so a
  // cache-sized key/count stream is reused across the whole slice. Block
  // order is irrelevant to the results (see sweep.h), chosen for locality.
  for (size_t tj = jb; tj < je; tj += tiling.j_tile) {
    block.jb = tj;
    block.je = std::min(tj + tiling.j_tile, je);
    for (size_t ti = 0; ti < n; ti += tiling.i_tile) {
      block.ib = ti;
      block.ie = std::min(ti + tiling.i_tile, n);
      sweep_block(block);
    }
  }
}

}  // namespace internal

void SweepUCounts(const SweepArgs& args, uint64_t* u_pos, uint64_t* u_neg) {
  const size_t n = args.n;
  std::fill_n(u_pos, n, 0);
  std::fill_n(u_neg, n, 0);
  if (n == 0) return;
  internal::SweepRangeTiled(ActiveKernelBackend(), args, 0, n,
                            DefaultSweepTiling(args.words), u_pos, u_neg);
  for (size_t j = 0; j < n; ++j) {
    // Self class: count(j) counted by both tests, count(j)−1 due.
    u_pos[j] -= 1;
    u_neg[j] -= 1;
  }
}

}  // namespace simd
}  // namespace util
}  // namespace jinfer
