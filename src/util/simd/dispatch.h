// Runtime-dispatched SIMD kernel backends (DESIGN.md §12.4).
//
// The fused u± candidate sweep exists in up to three variants — scalar,
// AVX2 and AVX-512 — each compiled into its own TU with function-level
// target attributes, so the binary stays portable: no global -mavx flags,
// and nothing past SSE2 executes until the CPUID probe has approved it. A
// backend is its sweep-block function (backends.h). The process runs one
// active backend, resolved at first use as the widest supported one;
// `JINFER_KERNEL_BACKEND` forces one instead:
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

#include <cstdint>
#include <vector>

#include "util/simd/cpu_features.h"

namespace jinfer {
namespace util {
namespace simd {

enum class KernelBackend : uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// The backend the sweeps run on. The first call probes the CPU and parses
/// JINFER_KERNEL_BACKEND, aborting on a malformed or unsupported value;
/// later calls read the backend that call chose, or the one
/// SetKernelBackend set since.
KernelBackend ActiveKernelBackend();

/// "scalar" / "avx2" / "avx512" — the JINFER_KERNEL_BACKEND tokens.
const char* KernelBackendName(KernelBackend backend);

/// True when `backend` is both compiled into this binary and usable on
/// this CPU+OS. kScalar is always supported.
bool KernelBackendSupported(KernelBackend backend);

/// The supported backends, ascending by width. Parity tests iterate this
/// so a run on any hardware covers exactly what that hardware can attest.
std::vector<KernelBackend> SupportedKernelBackends();

/// Forces the active backend in-process (tests, benches). Returns false —
/// leaving the active backend unchanged — when unsupported. Not a hot-path
/// API: concurrent sweeps pick up the change at their next sweep.
bool SetKernelBackend(KernelBackend backend);

}  // namespace simd
}  // namespace util
}  // namespace jinfer

#endif  // JINFER_UTIL_SIMD_DISPATCH_H_
