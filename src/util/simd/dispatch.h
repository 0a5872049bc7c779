// Runtime-dispatched SIMD kernel backends (DESIGN.md §12.4).
//
// The fused u± candidate sweep exists in up to three variants — scalar,
// AVX2 and AVX-512 — each compiled into its own TU with function-level
// target attributes, so the binary stays portable: no global -mavx flags,
// and nothing past SSE2 executes until the CPUID probe has approved it. A
// per-process table of function pointers (KernelOps) selects the widest
// supported backend at first use; `JINFER_KERNEL_BACKEND` forces one
// instead:
//
//   scalar | avx2 | avx512   — that backend, aborting when the CPU (or the
//                              build) does not support it
//   widest                   — the default choice, spelled out (the token
//                              CI's forced-widest job uses so it stays
//                              green on any hardware)
//
// Every backend is bit-identical by construction: the u± accumulators are
// uint64 sums (associative and commutative mod 2^64) over the same
// AND/ANDNOT/XOR word terms — so lane-blocking reorders arithmetic without
// changing any observable column, entropy, or argmin pick.
// tests/kernels/backend_parity_test.cc replays identical seeds against
// every compiled backend to hold the line.

#ifndef JINFER_UTIL_SIMD_DISPATCH_H_
#define JINFER_UTIL_SIMD_DISPATCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/simd/cpu_features.h"

namespace jinfer {
namespace util {
namespace simd {

enum class KernelBackend : uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

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

/// One backend's kernel implementation. Instances are immutable process
/// globals; call sites indirect through ActiveKernelOps() once per kernel
/// invocation. `sweep_block` takes words = 1..4 and aborts on any other
/// width.
struct KernelOps {
  KernelBackend backend;
  void (*sweep_block)(const SweepBlockArgs& args);
};

namespace internal {
/// Null until first use; then the chosen backend's table. The pointees are
/// immutable and fully built before publication, so a relaxed load is
/// enough on the hot path.
extern std::atomic<const KernelOps*> g_active_ops;
/// Slow path: probe the CPU, parse JINFER_KERNEL_BACKEND (aborting on a
/// malformed or unsupported value), publish and return the table.
const KernelOps* InitKernelOps();
}  // namespace internal

/// The active backend's kernel table (env override or widest supported).
inline const KernelOps& ActiveKernelOps() {
  const KernelOps* ops =
      internal::g_active_ops.load(std::memory_order_relaxed);
  return ops != nullptr ? *ops : *internal::InitKernelOps();
}

inline KernelBackend ActiveKernelBackend() {
  return ActiveKernelOps().backend;
}

/// "scalar" / "avx2" / "avx512" — the JINFER_KERNEL_BACKEND tokens.
const char* KernelBackendName(KernelBackend backend);

/// True when `backend` is both compiled into this binary and usable on
/// this CPU+OS. kScalar is always supported.
bool KernelBackendSupported(KernelBackend backend);

/// The supported backends, ascending by width. Parity tests iterate this
/// so a run on any hardware covers exactly what that hardware can attest.
std::vector<KernelBackend> SupportedKernelBackends();

/// That backend's table, independent of which one is active. The backend
/// must be supported (checked).
const KernelOps& KernelOpsFor(KernelBackend backend);

/// Forces the active backend in-process (tests, benches). Returns false —
/// leaving the active table unchanged — when unsupported. Not a hot-path
/// API: concurrent sweeps pick up the change at their next dispatch load.
bool SetKernelBackend(KernelBackend backend);

}  // namespace simd
}  // namespace util
}  // namespace jinfer

#endif  // JINFER_UTIL_SIMD_DISPATCH_H_
