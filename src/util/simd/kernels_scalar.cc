// Scalar kernel backend: the reference every other backend must match
// bit for bit — the fused u± sweep with per-candidate register
// accumulators (the former InferenceState W==1 hand loop and
// SweepUCountsFixed<2..4>, generalized to composable i×j blocks).

#include <cstddef>
#include <cstdint>

#include "util/bitset.h"
#include "util/simd/backends.h"

namespace jinfer {
namespace util {
namespace simd {
namespace internal {

namespace {

/// Lemma 3.4 against every witness row; early-out on the first container.
template <size_t W>
bool AnyWitnessContainsFixed(const uint64_t* key, const uint64_t* negs,
                             size_t num_negs) {
  for (size_t g = 0; g < num_negs; ++g) {
    uint64_t stray = 0;
    for (size_t w = 0; w < W; ++w) stray |= key[w] & ~negs[g * W + w];
    if (stray == 0) return true;
  }
  return false;
}

/// The fused u± block with the word count as a compile-time constant, so
/// every inner word loop fully unrolls. Same pair order and exact integer
/// sums as the pre-dispatch sweep; the only difference is accumulation
/// into the columns (`+=`), which makes i-blocks composable.
template <size_t W>
void SweepBlockFixed(const SweepBlockArgs& a) {
  for (size_t j = a.jb; j < a.je; ++j) {
    uint64_t sigw[W];
    uint64_t keyj[W];
    for (size_t w = 0; w < W; ++w) {
      sigw[w] = a.sigs[j * W + w];
      keyj[w] = a.keys[j * W + w];
    }
    uint64_t upos = 0, uneg = 0;
    for (size_t i = a.ib; i < a.ie; ++i) {
      const uint64_t* k = &a.keys[i * W];
      const uint64_t cnt = a.cnts[i];
      uint64_t stray = 0;
      uint64_t diff = 0;
      uint64_t key2[W];
      for (size_t w = 0; w < W; ++w) {
        key2[w] = k[w] & sigw[w];
        stray |= k[w] & ~sigw[w];
        diff |= key2[w] ^ keyj[w];
      }
      if (stray == 0) uneg += cnt;  // k ⊆ T(t_j).
      if (diff == 0 || AnyWitnessContainsFixed<W>(key2, a.negs, a.num_negs)) {
        upos += cnt;
      }
    }
    a.u_pos[j] += upos;
    a.u_neg[j] += uneg;
  }
}

}  // namespace

void SweepBlockScalar(const SweepBlockArgs& a) {
  WithWidth(a.words, [&](auto width) {
    SweepBlockFixed<decltype(width)::value>(a);
  });
}

}  // namespace internal
}  // namespace simd
}  // namespace util
}  // namespace jinfer
