// AVX2 kernel backend: 256-bit lanes, compiled with function-level target
// attributes so this TU needs no global ISA flags and the binary stays
// runnable on pre-AVX2 hardware (nothing here executes unless the CPUID
// probe approved it — see dispatch.cc).
//
// The fused u± sweep vectorizes across *candidates*: four candidates'
// signature and key words are held in lane vectors (built once per
// 4-candidate group), the inner loop broadcasts each streamed class's key
// words and count, and the Lemma 3.3/3.4 predicates become lane masks
// feeding masked 64-bit adds — so all four accumulator lanes run the
// identical exact mod-2^64 sums as four scalar passes, in lockstep.
// Candidate tails (< 4 lanes) fall through to the scalar block, which is
// bit-identical.

#include "util/simd/backends.h"

#if JINFER_SIMD_X86

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "util/bitset.h"

namespace jinfer {
namespace util {
namespace simd {
namespace internal {

namespace {

#define JINFER_TARGET_AVX2 __attribute__((target("avx2")))

JINFER_TARGET_AVX2 inline __m256i Load4(const uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

/// Four candidates per pass. W is compile-time so the per-word vector
/// arrays live in registers, exactly like the scalar fixed-width blocks.
template <size_t W>
JINFER_TARGET_AVX2 void SweepBlockAvx2Fixed(const SweepBlockArgs& a) {
  const __m256i zero = _mm256_setzero_si256();
  size_t j = a.jb;
  for (; j + 4 <= a.je; j += 4) {
    __m256i sigv[W];
    __m256i keyv[W];
    for (size_t w = 0; w < W; ++w) {
      if constexpr (W == 1) {
        sigv[w] = Load4(&a.sigs[j]);
        keyv[w] = Load4(&a.keys[j]);
      } else {
        sigv[w] = _mm256_set_epi64x(
            static_cast<int64_t>(a.sigs[(j + 3) * W + w]),
            static_cast<int64_t>(a.sigs[(j + 2) * W + w]),
            static_cast<int64_t>(a.sigs[(j + 1) * W + w]),
            static_cast<int64_t>(a.sigs[(j + 0) * W + w]));
        keyv[w] = _mm256_set_epi64x(
            static_cast<int64_t>(a.keys[(j + 3) * W + w]),
            static_cast<int64_t>(a.keys[(j + 2) * W + w]),
            static_cast<int64_t>(a.keys[(j + 1) * W + w]),
            static_cast<int64_t>(a.keys[(j + 0) * W + w]));
      }
    }
    __m256i upos = zero;
    __m256i uneg = zero;
    for (size_t i = a.ib; i < a.ie; ++i) {
      __m256i stray = zero;
      __m256i diff = zero;
      __m256i key2[W];
      for (size_t w = 0; w < W; ++w) {
        const __m256i k =
            _mm256_set1_epi64x(static_cast<int64_t>(a.keys[i * W + w]));
        key2[w] = _mm256_and_si256(k, sigv[w]);
        stray = _mm256_or_si256(stray, _mm256_andnot_si256(sigv[w], k));
        diff = _mm256_or_si256(diff, _mm256_xor_si256(key2[w], keyv[w]));
      }
      const __m256i cnt =
          _mm256_set1_epi64x(static_cast<int64_t>(a.cnts[i]));
      uneg = _mm256_add_epi64(
          uneg, _mm256_and_si256(cnt, _mm256_cmpeq_epi64(stray, zero)));
      __m256i pos = _mm256_cmpeq_epi64(diff, zero);
      for (size_t g = 0; g < a.num_negs; ++g) {
        __m256i wstray = zero;
        for (size_t w = 0; w < W; ++w) {
          const __m256i nb =
              _mm256_set1_epi64x(static_cast<int64_t>(a.negs[g * W + w]));
          wstray = _mm256_or_si256(wstray, _mm256_andnot_si256(nb, key2[w]));
        }
        pos = _mm256_or_si256(pos, _mm256_cmpeq_epi64(wstray, zero));
      }
      upos = _mm256_add_epi64(upos, _mm256_and_si256(cnt, pos));
    }
    __m256i* out_pos = reinterpret_cast<__m256i*>(&a.u_pos[j]);
    __m256i* out_neg = reinterpret_cast<__m256i*>(&a.u_neg[j]);
    _mm256_storeu_si256(out_pos,
                        _mm256_add_epi64(_mm256_loadu_si256(out_pos), upos));
    _mm256_storeu_si256(out_neg,
                        _mm256_add_epi64(_mm256_loadu_si256(out_neg), uneg));
  }
  if (j < a.je) {
    SweepBlockArgs tail = a;
    tail.jb = j;
    SweepBlockScalar(tail);
  }
}

#undef JINFER_TARGET_AVX2

}  // namespace

void SweepBlockAvx2(const SweepBlockArgs& a) {
  WithWidth(a.words, [&](auto width) {
    SweepBlockAvx2Fixed<decltype(width)::value>(a);
  });
}

}  // namespace internal
}  // namespace simd
}  // namespace util
}  // namespace jinfer

#endif  // JINFER_SIMD_X86
