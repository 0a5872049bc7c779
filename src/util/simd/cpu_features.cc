#include "util/simd/cpu_features.h"

#include <cstdint>

#if JINFER_SIMD_X86
#include <cpuid.h>
#endif

namespace jinfer {
namespace util {
namespace simd {

namespace {

#if JINFER_SIMD_X86

/// XGETBV(0): which register state the OS saves/restores. Emitted as raw
/// bytes so no -mxsave flag is needed for this TU.
uint64_t Xcr0() {
  uint32_t eax, edx;
  __asm__ volatile(".byte 0x0f, 0x01, 0xd0" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<uint64_t>(edx) << 32) | eax;
}

CpuFeatures Probe() {
  CpuFeatures f;
  unsigned eax, ebx, ecx, edx;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return f;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  const bool avx = (ecx & (1u << 28)) != 0;
  if (!osxsave || !avx) return f;

  const uint64_t xcr0 = Xcr0();
  const bool ymm_state = (xcr0 & 0x6) == 0x6;           // XMM + YMM.
  const bool zmm_state = (xcr0 & 0xe6) == 0xe6;         // + opmask, ZMM.
  if (!ymm_state) return f;

  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return f;
  f.avx2 = (ebx & (1u << 5)) != 0;
  const bool avx512f = (ebx & (1u << 16)) != 0;
  const bool avx512dq = (ebx & (1u << 17)) != 0;
  const bool avx512bw = (ebx & (1u << 30)) != 0;
  const bool avx512vl = (ebx & (1u << 31)) != 0;
  f.avx512 = zmm_state && avx512f && avx512dq && avx512bw && avx512vl;
  return f;
}

#else  // !JINFER_SIMD_X86

CpuFeatures Probe() { return CpuFeatures{}; }

#endif

}  // namespace

const CpuFeatures& DetectCpuFeatures() {
  static const CpuFeatures features = Probe();
  return features;
}

}  // namespace simd
}  // namespace util
}  // namespace jinfer
