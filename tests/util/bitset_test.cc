#include "util/bitset.h"

#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

namespace jinfer {
namespace util {
namespace {

TEST(SmallBitsetTest, DefaultIsEmpty) {
  SmallBitset b;
  EXPECT_EQ(b.Count(), 0u);
}

TEST(SmallBitsetTest, SetTestReset) {
  SmallBitset b;
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(255);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(63));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(255));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Count(), 4u);
  b.Reset(63);
  EXPECT_FALSE(b.Test(63));
  EXPECT_EQ(b.Count(), 3u);
}

TEST(SmallBitsetTest, AllSetExactWidth) {
  for (size_t n : {0u, 1u, 5u, 63u, 64u, 65u, 128u, 200u, 256u}) {
    SmallBitset b = SmallBitset::AllSet(n);
    EXPECT_EQ(b.Count(), n) << n;
    if (n > 0) {
      EXPECT_TRUE(b.Test(n - 1));
    }
    if (n < SmallBitset::kMaxBits) {
      EXPECT_FALSE(b.Test(n));
    }
  }
}

TEST(SmallBitsetTest, Singleton) {
  SmallBitset b = SmallBitset::Singleton(100);
  EXPECT_EQ(b.Count(), 1u);
  EXPECT_TRUE(b.Test(100));
}

TEST(SmallBitsetTest, CountPrefixCountsTheLeadingWords) {
  SmallBitset b = SmallBitset::AllSet(72);  // Words 0 and 1 (8 bits).
  b.Set(200);                               // Word 3.
  EXPECT_EQ(b.CountPrefix(1), 64u);
  EXPECT_EQ(b.CountPrefix(2), 72u);
  EXPECT_EQ(b.CountPrefix(3), 72u);
  EXPECT_EQ(b.CountPrefix(SmallBitset::kWords), b.Count());
}

TEST(SmallBitsetTest, SubsetReflexive) {
  SmallBitset b = SmallBitset::AllSet(77);
  EXPECT_TRUE(b.IsSubsetOf(b));
  EXPECT_FALSE(b.IsStrictSubsetOf(b));
}

TEST(SmallBitsetTest, SubsetBasics) {
  SmallBitset small, big;
  small.Set(3);
  small.Set(130);
  big = small;
  big.Set(200);
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_TRUE(small.IsStrictSubsetOf(big));
  EXPECT_FALSE(big.IsSubsetOf(small));
  EXPECT_TRUE(SmallBitset().IsSubsetOf(small));  // ∅ ⊆ everything
}

TEST(SmallBitsetTest, IncomparableSetsAreNotSubsets) {
  SmallBitset a = SmallBitset::Singleton(1);
  SmallBitset b = SmallBitset::Singleton(2);
  EXPECT_FALSE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
}

TEST(SmallBitsetTest, SetAlgebra) {
  SmallBitset a, b;
  a.Set(1);
  a.Set(2);
  a.Set(150);
  b.Set(2);
  b.Set(150);
  b.Set(255);

  SmallBitset inter = a & b;
  EXPECT_EQ(inter.Count(), 2u);
  EXPECT_TRUE(inter.Test(2));
  EXPECT_TRUE(inter.Test(150));

  SmallBitset uni = a | b;
  EXPECT_EQ(uni.Count(), 4u);

  SmallBitset diff = a - b;
  EXPECT_EQ(diff.Count(), 1u);
  EXPECT_TRUE(diff.Test(1));

  SmallBitset sym = a ^ b;
  EXPECT_EQ(sym.Count(), 2u);
  EXPECT_TRUE(sym.Test(1));
  EXPECT_TRUE(sym.Test(255));
}

TEST(SmallBitsetTest, CompoundAssignment) {
  SmallBitset a = SmallBitset::Singleton(5);
  SmallBitset b = SmallBitset::Singleton(6);
  a |= b;
  EXPECT_EQ(a.Count(), 2u);
  a &= b;
  EXPECT_EQ(a, b);
}

TEST(SmallBitsetTest, ForEachSetBitInOrder) {
  SmallBitset b;
  b.Set(200);
  b.Set(3);
  b.Set(64);
  std::vector<size_t> seen;
  b.ForEachSetBit([&](size_t bit) { seen.push_back(bit); });
  EXPECT_EQ(seen, (std::vector<size_t>{3, 64, 200}));
}

TEST(SmallBitsetTest, EqualityAndOrdering) {
  SmallBitset a = SmallBitset::Singleton(9);
  SmallBitset b = SmallBitset::Singleton(9);
  SmallBitset c = SmallBitset::Singleton(10);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(a < c || c < a);
  EXPECT_FALSE(a < b);
}

TEST(SmallBitsetTest, HashDistinguishesAndAgrees) {
  SmallBitset a = SmallBitset::Singleton(9);
  SmallBitset b = SmallBitset::Singleton(9);
  EXPECT_EQ(a.Hash(), b.Hash());
  // Distinct sets of a small family all hash differently (sanity, not a
  // cryptographic claim).
  std::unordered_set<size_t> hashes;
  for (size_t i = 0; i < 256; ++i) {
    hashes.insert(SmallBitset::Singleton(i).Hash());
  }
  EXPECT_EQ(hashes.size(), 256u);
}

TEST(SmallBitsetTest, WorksAsUnorderedMapKey) {
  std::unordered_set<SmallBitset, SmallBitsetHash> set;
  set.insert(SmallBitset::Singleton(1));
  set.insert(SmallBitset::Singleton(1));
  set.insert(SmallBitset::Singleton(2));
  EXPECT_EQ(set.size(), 2u);
}

TEST(SmallBitsetTest, ToString) {
  SmallBitset b;
  EXPECT_EQ(b.ToString(), "{}");
  b.Set(0);
  b.Set(17);
  EXPECT_EQ(b.ToString(), "{0,17}");
}

TEST(SmallBitsetDeathTest, OutOfRangeAborts) {
  SmallBitset b;
  // Per-bit capacity checks are JINFER_DCHECKs: live wherever the Debug CI
  // jobs (sanitizers, chaos, TSan) build, compiled out of Release hot
  // loops. Bulk entry points keep full-time checks in every build type.
#if !defined(NDEBUG) || defined(JINFER_DEBUG_CHECKS)
  EXPECT_DEATH(b.Set(256), "out of range");
  EXPECT_DEATH(b.Test(256), "out of range");
#endif
  EXPECT_DEATH(SmallBitset::AllSet(257), "exceeds capacity");
}

}  // namespace
}  // namespace util
}  // namespace jinfer
