// Backend selection: probe the CPU, honor JINFER_KERNEL_BACKEND, publish
// the chosen kernel table. See dispatch.h for the contract.

#include "util/simd/dispatch.h"

#include <cstdlib>
#include <cstring>

#include "util/check.h"
#include "util/simd/backends.h"

namespace jinfer {
namespace util {
namespace simd {

namespace internal {

std::atomic<const KernelOps*> g_active_ops{nullptr};

namespace {

const KernelOps& OpsForSupported(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return kScalarOps;
#if JINFER_SIMD_X86
    case KernelBackend::kAvx2:
      return kAvx2Ops;
    case KernelBackend::kAvx512:
      return kAvx512Ops;
#endif
    default:
      JINFER_CHECK(false, "kernel backend %d not compiled into this binary",
                   static_cast<int>(backend));
      return kScalarOps;  // Unreachable.
  }
}

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

}  // namespace

const KernelOps* InitKernelOps() {
  // Function-local static: the probe + env parse run exactly once even
  // under concurrent first use; later callers block until publication.
  static const KernelOps* ops = [] {
    const KernelOps* chosen = &OpsForSupported(ResolveRequestedBackend());
    g_active_ops.store(chosen, std::memory_order_release);
    return chosen;
  }();
  // A SetKernelBackend between our init and now may have replaced the
  // table; re-load rather than return the stale candidate.
  const KernelOps* current = g_active_ops.load(std::memory_order_relaxed);
  return current != nullptr ? current : ops;
}

}  // namespace internal

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

const KernelOps& KernelOpsFor(KernelBackend backend) {
  JINFER_CHECK(KernelBackendSupported(backend),
               "kernel backend %s unsupported on this CPU/build",
               KernelBackendName(backend));
  return internal::OpsForSupported(backend);
}

bool SetKernelBackend(KernelBackend backend) {
  if (!KernelBackendSupported(backend)) return false;
  internal::g_active_ops.store(&internal::OpsForSupported(backend),
                               std::memory_order_release);
  return true;
}

}  // namespace simd
}  // namespace util
}  // namespace jinfer
