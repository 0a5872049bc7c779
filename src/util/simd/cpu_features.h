// CPUID-based feature probe backing the kernel-backend dispatch
// (DESIGN.md §12.4).
//
// Probing is done once per process and cached; the result reflects both
// the CPU's instruction-set bits and the OS's XSAVE state (a kernel that
// does not context-switch ZMM registers must not be handed AVX-512 code,
// however loudly CPUID advertises it — hence the XGETBV checks).

#ifndef JINFER_UTIL_SIMD_CPU_FEATURES_H_
#define JINFER_UTIL_SIMD_CPU_FEATURES_H_

// The SIMD backends are compiled (per-TU, with function-level target
// attributes) only for x86-64 under GCC/Clang; everywhere else the
// scalar backend is the only one and this probe returns all-false.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define JINFER_SIMD_X86 1
#else
#define JINFER_SIMD_X86 0
#endif

namespace jinfer {
namespace util {
namespace simd {

struct CpuFeatures {
  /// AVX2, with OS support for YMM state.
  bool avx2 = false;
  /// The AVX-512 subset the kernels use — F+BW+DQ+VL — with OS support
  /// for ZMM and opmask state.
  bool avx512 = false;
};

/// The process-wide probe result, computed on first call.
const CpuFeatures& DetectCpuFeatures();

}  // namespace simd
}  // namespace util
}  // namespace jinfer

#endif  // JINFER_UTIL_SIMD_CPU_FEATURES_H_
