// Backend selection: probe the CPU, honor JINFER_KERNEL_BACKEND, hold the
// active backend. See dispatch.h for the contract.

#include "util/simd/dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/check.h"

namespace jinfer {
namespace util {
namespace simd {

namespace {

KernelBackend WidestSupportedBackend() {
  const CpuFeatures& cpu = DetectCpuFeatures();
  if (cpu.avx512) return KernelBackend::kAvx512;
  if (cpu.avx2) return KernelBackend::kAvx2;
  return KernelBackend::kScalar;
}

/// Parses JINFER_KERNEL_BACKEND. Aborts on a malformed token or on a
/// backend this binary/CPU cannot run — a forced backend silently falling
/// back would defeat the point of forcing it (CI parity jobs rely on
/// this).
KernelBackend ResolveRequestedBackend() {
  const char* env = std::getenv("JINFER_KERNEL_BACKEND");
  if (env == nullptr || env[0] == '\0' ||
      std::strcmp(env, "widest") == 0) {
    return WidestSupportedBackend();
  }
  KernelBackend requested;
  if (std::strcmp(env, "scalar") == 0) {
    requested = KernelBackend::kScalar;
  } else if (std::strcmp(env, "avx2") == 0) {
    requested = KernelBackend::kAvx2;
  } else if (std::strcmp(env, "avx512") == 0) {
    requested = KernelBackend::kAvx512;
  } else {
    JINFER_CHECK(false,
                 "JINFER_KERNEL_BACKEND=%s is not one of "
                 "scalar|avx2|avx512|widest",
                 env);
    return KernelBackend::kScalar;  // Unreachable.
  }
  JINFER_CHECK(KernelBackendSupported(requested),
               "JINFER_KERNEL_BACKEND=%s requests a backend this "
               "binary/CPU cannot run",
               env);
  return requested;
}

/// The active backend. Function-local static: the probe and the env parse
/// run exactly once even under concurrent first use.
std::atomic<KernelBackend>& Active() {
  static std::atomic<KernelBackend> active{ResolveRequestedBackend()};
  return active;
}

}  // namespace

KernelBackend ActiveKernelBackend() {
  return Active().load(std::memory_order_relaxed);
}

const char* KernelBackendName(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kAvx2:
      return "avx2";
    case KernelBackend::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool KernelBackendSupported(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return true;
#if JINFER_SIMD_X86
    case KernelBackend::kAvx2:
      return DetectCpuFeatures().avx2;
    case KernelBackend::kAvx512:
      return DetectCpuFeatures().avx512;
#endif
    default:
      return false;
  }
}

std::vector<KernelBackend> SupportedKernelBackends() {
  std::vector<KernelBackend> backends = {KernelBackend::kScalar};
  if (KernelBackendSupported(KernelBackend::kAvx2)) {
    backends.push_back(KernelBackend::kAvx2);
  }
  if (KernelBackendSupported(KernelBackend::kAvx512)) {
    backends.push_back(KernelBackend::kAvx512);
  }
  return backends;
}

bool SetKernelBackend(KernelBackend backend) {
  if (!KernelBackendSupported(backend)) return false;
  Active().store(backend, std::memory_order_relaxed);
  return true;
}

}  // namespace simd
}  // namespace util
}  // namespace jinfer
