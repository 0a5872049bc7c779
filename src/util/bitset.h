// SmallBitset: a fixed-capacity (256-bit) bitset with the set-algebra
// operations the inference core needs: subset tests, intersection, union,
// popcount, iteration over set bits, and hashing.
//
// 256 bits covers Omega = attrs(R) x attrs(P) for tables of up to 16x16
// attributes (e.g. TPC-H Lineitem(16) x Part(9)). The capacity is pinned by
// the store format (SignatureClass embeds the four words directly), and
// Omega::Make refuses larger universes, so this is the library's only
// bitset type, and WithWidth below is the one switch that turns a runtime
// word count 1..4 into a compile-time one for word loops over packed
// predicate words.
// Per-bit capacity violations abort via JINFER_DCHECK — always-on in the
// Debug builds the sanitizer/chaos/TSan CI jobs run, compiled out of the
// Release hot loops. Bulk entry points (AllSet, word) keep full-time checks.

#ifndef JINFER_UTIL_BITSET_H_
#define JINFER_UTIL_BITSET_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>

#include "util/check.h"

namespace jinfer {
namespace util {

/// SplitMix64-style finalizer shared by every hash in the library (bitset
/// hashing, row hashing in the index build): mixes one word into a running
/// state. Chain as h = Mix64(w + h).
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class SmallBitset {
 public:
  static constexpr size_t kMaxBits = 256;
  static constexpr size_t kWords = kMaxBits / 64;

  /// Constructs the empty set.
  constexpr SmallBitset() : words_{0, 0, 0, 0} {}

  /// Returns a bitset with bits [0, n) set.
  static SmallBitset AllSet(size_t n) {
    JINFER_CHECK(n <= kMaxBits, "AllSet(%zu) exceeds capacity %zu", n,
                 kMaxBits);
    SmallBitset b;
    size_t full = n / 64;
    for (size_t w = 0; w < full; ++w) b.words_[w] = ~uint64_t{0};
    if (n % 64 != 0) b.words_[full] = (uint64_t{1} << (n % 64)) - 1;
    return b;
  }

  /// Returns a singleton {bit}.
  static SmallBitset Singleton(size_t bit) {
    SmallBitset b;
    b.Set(bit);
    return b;
  }

  void Set(size_t bit) {
    JINFER_DCHECK(bit < kMaxBits, "Set(%zu) out of range", bit);
    words_[bit / 64] |= uint64_t{1} << (bit % 64);
  }

  void Reset(size_t bit) {
    JINFER_DCHECK(bit < kMaxBits, "Reset(%zu) out of range", bit);
    words_[bit / 64] &= ~(uint64_t{1} << (bit % 64));
  }

  bool Test(size_t bit) const {
    JINFER_DCHECK(bit < kMaxBits, "Test(%zu) out of range", bit);
    return (words_[bit / 64] >> (bit % 64)) & 1;
  }

  /// Number of set bits.
  size_t Count() const {
    size_t c = 0;
    for (uint64_t w : words_) c += static_cast<size_t>(std::popcount(w));
    return c;
  }

  /// Number of 64-bit words needed to cover bit indices [0, nbits);
  /// always >= 1 so prefix loops never degenerate.
  static constexpr size_t WordsFor(size_t nbits) {
    return nbits == 0 ? 1 : (nbits + 63) / 64;
  }

  /// The i-th 64-bit word (bits [64i, 64i+64)). Lets single-word callers
  /// (|Ω| ≤ 64) run their inner loops on plain uint64_t values.
  uint64_t word(size_t i) const {
    JINFER_CHECK(i < kWords, "word(%zu) out of range", i);
    return words_[i];
  }

  /// True iff *this is a subset of `other` (not necessarily strict).
  bool IsSubsetOf(const SmallBitset& other) const {
    for (size_t w = 0; w < kWords; ++w) {
      if ((words_[w] & ~other.words_[w]) != 0) return false;
    }
    return true;
  }

  // Prefix variants of the hot-path operations: they touch only the first
  // `words` words. Exact whenever neither operand has a set bit at index
  // >= words * 64 — the inference core guarantees this with
  // words = WordsFor(|Ω|), since every predicate lives inside Ω. On the
  // common 3×3-attribute instances this is 1 word instead of 4.

  /// IsSubsetOf over the first `words` words. The single-word case is
  /// branched explicitly: a constant-bound loop unrolls, a runtime-bound
  /// one does not, and one word covers every instance up to 8×8 attributes.
  bool IsSubsetOfPrefix(const SmallBitset& other, size_t words) const {
    if (words == 1) return (words_[0] & ~other.words_[0]) == 0;
    for (size_t w = 0; w < words; ++w) {
      if ((words_[w] & ~other.words_[w]) != 0) return false;
    }
    return true;
  }

  /// Equality over the first `words` words.
  bool EqualsPrefix(const SmallBitset& other, size_t words) const {
    if (words == 1) return words_[0] == other.words_[0];
    for (size_t w = 0; w < words; ++w) {
      if (words_[w] != other.words_[w]) return false;
    }
    return true;
  }

  /// Count() over the first `words` words.
  size_t CountPrefix(size_t words) const {
    size_t c = 0;
    for (size_t w = 0; w < words; ++w) {
      c += static_cast<size_t>(std::popcount(words_[w]));
    }
    return c;
  }

  /// Hash() over the first `words` words. Not interchangeable with Hash():
  /// containers must use one or the other consistently.
  size_t HashPrefix(size_t words) const {
    if (words == 1) return static_cast<size_t>(Mix64(words_[0]));
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (size_t w = 0; w < words; ++w) h = Mix64(words_[w] + h);
    return static_cast<size_t>(h);
  }

  /// True iff *this is a strict subset of `other`.
  bool IsStrictSubsetOf(const SmallBitset& other) const {
    return IsSubsetOf(other) && *this != other;
  }

  SmallBitset operator&(const SmallBitset& o) const {
    SmallBitset r;
    for (size_t w = 0; w < kWords; ++w) r.words_[w] = words_[w] & o.words_[w];
    return r;
  }
  SmallBitset operator|(const SmallBitset& o) const {
    SmallBitset r;
    for (size_t w = 0; w < kWords; ++w) r.words_[w] = words_[w] | o.words_[w];
    return r;
  }
  SmallBitset operator^(const SmallBitset& o) const {
    SmallBitset r;
    for (size_t w = 0; w < kWords; ++w) r.words_[w] = words_[w] ^ o.words_[w];
    return r;
  }
  /// Set difference: bits in *this but not in `o`.
  SmallBitset operator-(const SmallBitset& o) const {
    SmallBitset r;
    for (size_t w = 0; w < kWords; ++w) r.words_[w] = words_[w] & ~o.words_[w];
    return r;
  }
  SmallBitset& operator&=(const SmallBitset& o) {
    for (size_t w = 0; w < kWords; ++w) words_[w] &= o.words_[w];
    return *this;
  }
  SmallBitset& operator|=(const SmallBitset& o) {
    for (size_t w = 0; w < kWords; ++w) words_[w] |= o.words_[w];
    return *this;
  }

  friend bool operator==(const SmallBitset& a, const SmallBitset& b) {
    return a.words_ == b.words_;
  }
  friend bool operator!=(const SmallBitset& a, const SmallBitset& b) {
    return !(a == b);
  }
  /// Lexicographic-by-word order; any strict total order works for use as
  /// std::map keys and canonical sorting.
  friend bool operator<(const SmallBitset& a, const SmallBitset& b) {
    for (size_t w = kWords; w-- > 0;) {
      if (a.words_[w] != b.words_[w]) return a.words_[w] < b.words_[w];
    }
    return false;
  }

  /// Calls fn(bit) for every set bit, in increasing order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t w = 0; w < kWords; ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        size_t bit = w * 64 + static_cast<size_t>(std::countr_zero(word));
        fn(bit);
        word &= word - 1;
      }
    }
  }

  /// 64-bit mix hash over the words (splitmix-style combiner).
  size_t Hash() const {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (uint64_t w : words_) h = Mix64(w + h);
    return static_cast<size_t>(h);
  }

  /// Debug string, e.g. "{0,3,17}".
  std::string ToString() const;

 private:
  std::array<uint64_t, kWords> words_;
};

/// The library's one word-width switch: runs
/// body(std::integral_constant<size_t, W>{}) for W = words, 1..kWords, so
/// the body's word loops have a compile-time bound and fully unroll, and
/// aborts on any other width. Every predicate lives in a four-word
/// SmallBitset (|Ω| ≤ 256, DESIGN.md §12.1), so a wider loop is a caller
/// bug. The inference core's apply, undo and u± loops and each kernel
/// backend's sweep block run through it. Forced inline, like the lambdas
/// handed to it, so each width's body lands in its own case of the caller
/// with its arguments in registers: common universes run at W = 1, where a
/// call per label or per candidate is measurable (BM_EntropyK/1).
template <typename Body>
__attribute__((always_inline)) inline decltype(auto) WithWidth(size_t words,
                                                               Body&& body) {
  static_assert(SmallBitset::kWords == 4, "the switch covers 1..kWords");
  switch (words) {
    case 1:
      return body(std::integral_constant<size_t, 1>{});
    case 2:
      return body(std::integral_constant<size_t, 2>{});
    case 3:
      return body(std::integral_constant<size_t, 3>{});
    case 4:
      return body(std::integral_constant<size_t, 4>{});
  }
  JINFER_CHECK(false,
               "sweep over %zu words: the kernels cover 1..4 (|Omega| <= 256)",
               words);
}

struct SmallBitsetHash {
  size_t operator()(const SmallBitset& b) const { return b.Hash(); }
};

}  // namespace util
}  // namespace jinfer

#endif  // JINFER_UTIL_BITSET_H_
