// AVX-512 kernel backend (F+BW+DQ+VL): the 512-bit analogue of the AVX2
// TU — eight candidate lanes per sweep pass, with the Lemma 3.3/3.4
// predicates landing directly in opmask registers feeding masked 64-bit
// adds. Same function-level target attributes, same scalar tail for
// sub-lane candidate remainders, same exact mod-2^64 arithmetic, so the
// columns stay bit-identical to every other backend.

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

#define JINFER_TARGET_AVX512 \
  __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl")))

JINFER_TARGET_AVX512 inline __m512i Load8(const uint64_t* p) {
  return _mm512_loadu_si512(p);
}

/// Eight candidates per pass; structure mirrors SweepBlockAvx2Fixed with
/// compare masks in place of compare vectors.
template <size_t W>
JINFER_TARGET_AVX512 void SweepBlockAvx512Fixed(const SweepBlockArgs& a) {
  const __m512i zero = _mm512_setzero_si512();
  size_t j = a.jb;
  for (; j + 8 <= a.je; j += 8) {
    __m512i sigv[W];
    __m512i keyv[W];
    for (size_t w = 0; w < W; ++w) {
      if constexpr (W == 1) {
        sigv[w] = Load8(&a.sigs[j]);
        keyv[w] = Load8(&a.keys[j]);
      } else {
        sigv[w] = _mm512_set_epi64(
            static_cast<int64_t>(a.sigs[(j + 7) * W + w]),
            static_cast<int64_t>(a.sigs[(j + 6) * W + w]),
            static_cast<int64_t>(a.sigs[(j + 5) * W + w]),
            static_cast<int64_t>(a.sigs[(j + 4) * W + w]),
            static_cast<int64_t>(a.sigs[(j + 3) * W + w]),
            static_cast<int64_t>(a.sigs[(j + 2) * W + w]),
            static_cast<int64_t>(a.sigs[(j + 1) * W + w]),
            static_cast<int64_t>(a.sigs[(j + 0) * W + w]));
        keyv[w] = _mm512_set_epi64(
            static_cast<int64_t>(a.keys[(j + 7) * W + w]),
            static_cast<int64_t>(a.keys[(j + 6) * W + w]),
            static_cast<int64_t>(a.keys[(j + 5) * W + w]),
            static_cast<int64_t>(a.keys[(j + 4) * W + w]),
            static_cast<int64_t>(a.keys[(j + 3) * W + w]),
            static_cast<int64_t>(a.keys[(j + 2) * W + w]),
            static_cast<int64_t>(a.keys[(j + 1) * W + w]),
            static_cast<int64_t>(a.keys[(j + 0) * W + w]));
      }
    }
    __m512i upos = zero;
    __m512i uneg = zero;
    for (size_t i = a.ib; i < a.ie; ++i) {
      __m512i stray = zero;
      __m512i diff = zero;
      __m512i key2[W];
      for (size_t w = 0; w < W; ++w) {
        const __m512i k =
            _mm512_set1_epi64(static_cast<int64_t>(a.keys[i * W + w]));
        key2[w] = _mm512_and_si512(k, sigv[w]);
        stray = _mm512_or_si512(stray, _mm512_andnot_si512(sigv[w], k));
        diff = _mm512_or_si512(diff, _mm512_xor_si512(key2[w], keyv[w]));
      }
      const __m512i cnt =
          _mm512_set1_epi64(static_cast<int64_t>(a.cnts[i]));
      const __mmask8 negm = _mm512_cmpeq_epi64_mask(stray, zero);
      uneg = _mm512_mask_add_epi64(uneg, negm, uneg, cnt);
      __mmask8 posm = _mm512_cmpeq_epi64_mask(diff, zero);
      for (size_t g = 0; g < a.num_negs; ++g) {
        __m512i wstray = zero;
        for (size_t w = 0; w < W; ++w) {
          const __m512i nb =
              _mm512_set1_epi64(static_cast<int64_t>(a.negs[g * W + w]));
          wstray = _mm512_or_si512(wstray, _mm512_andnot_si512(nb, key2[w]));
        }
        posm |= _mm512_cmpeq_epi64_mask(wstray, zero);
      }
      upos = _mm512_mask_add_epi64(upos, posm, upos, cnt);
    }
    _mm512_storeu_si512(&a.u_pos[j],
                        _mm512_add_epi64(_mm512_loadu_si512(&a.u_pos[j]),
                                         upos));
    _mm512_storeu_si512(&a.u_neg[j],
                        _mm512_add_epi64(_mm512_loadu_si512(&a.u_neg[j]),
                                         uneg));
  }
  if (j < a.je) {
    SweepBlockArgs tail = a;
    tail.jb = j;
    SweepBlockScalar(tail);
  }
}

#undef JINFER_TARGET_AVX512

}  // namespace

void SweepBlockAvx512(const SweepBlockArgs& a) {
  WithWidth(a.words, [&](auto width) {
    SweepBlockAvx512Fixed<decltype(width)::value>(a);
  });
}

}  // namespace internal
}  // namespace simd
}  // namespace util
}  // namespace jinfer

#endif  // JINFER_SIMD_X86
