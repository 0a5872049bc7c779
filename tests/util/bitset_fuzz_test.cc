// Randomized cross-validation of the predicate bitset against reference
// models — SmallBitset underlies every lemma in the core, so its set
// algebra gets differential fuzz suites on top of the unit tests.
//
// Two layers:
//   1. The original SmallBitset-vs-std::bitset<256> algebra fuzz.
//   2. An op-sequence fuzzer driving SmallBitset and the naive
//      testing::BoolVecModel through identical random op sequences,
//      comparing every observable after every op. Universes are chosen to
//      straddle the word boundaries (63/64/65, 255/256) where prefix bugs
//      live, plus the degenerate empty/full sets.

#include <bitset>

#include <gtest/gtest.h>

#include "testing/bitset_model.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace jinfer {
namespace util {
namespace {

using jinfer::testing::BoolVecModel;
using jinfer::testing::ExpectMatchesModel;

constexpr size_t kBits = SmallBitset::kMaxBits;

struct ModelPair {
  SmallBitset mine;
  std::bitset<kBits> ref;
};

ModelPair RandomSet(Rng& rng, double density) {
  ModelPair out;
  for (size_t b = 0; b < kBits; ++b) {
    if (rng.NextBool(density)) {
      out.mine.Set(b);
      out.ref.set(b);
    }
  }
  return out;
}

class BitsetFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BitsetFuzzTest, AlgebraMatchesReference) {
  Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    double density = rng.NextDouble();
    ModelPair a = RandomSet(rng, density);
    ModelPair b = RandomSet(rng, density * 0.5);

    EXPECT_EQ((a.mine & b.mine).Count(), (a.ref & b.ref).count());
    EXPECT_EQ((a.mine | b.mine).Count(), (a.ref | b.ref).count());
    EXPECT_EQ((a.mine ^ b.mine).Count(), (a.ref ^ b.ref).count());
    EXPECT_EQ((a.mine - b.mine).Count(), (a.ref & ~b.ref).count());
    EXPECT_EQ(a.mine.Count(), a.ref.count());
    EXPECT_EQ(a.mine.IsSubsetOf(b.mine), (a.ref & ~b.ref).none());
    EXPECT_EQ(a.mine == b.mine, a.ref == b.ref);
  }
}

TEST_P(BitsetFuzzTest, IterationMatchesReference) {
  Rng rng(GetParam() ^ 0x17);
  ModelPair a = RandomSet(rng, 0.2);
  std::vector<size_t> via_foreach;
  a.mine.ForEachSetBit([&](size_t bit) { via_foreach.push_back(bit); });
  std::vector<size_t> expected;
  for (size_t b = 0; b < kBits; ++b) {
    if (a.ref.test(b)) expected.push_back(b);
  }
  EXPECT_EQ(via_foreach, expected);
}

TEST_P(BitsetFuzzTest, SubsetIsAPartialOrder) {
  Rng rng(GetParam() ^ 0x99);
  ModelPair a = RandomSet(rng, 0.3);
  ModelPair b = RandomSet(rng, 0.3);
  ModelPair c = RandomSet(rng, 0.3);
  // Reflexivity, antisymmetry, transitivity (via union/intersection).
  EXPECT_TRUE(a.mine.IsSubsetOf(a.mine));
  EXPECT_TRUE((a.mine & b.mine).IsSubsetOf(a.mine));
  EXPECT_TRUE(a.mine.IsSubsetOf(a.mine | b.mine));
  SmallBitset ab = a.mine & b.mine;
  SmallBitset abc = ab & c.mine;
  EXPECT_TRUE(abc.IsSubsetOf(ab));
  EXPECT_TRUE(abc.IsSubsetOf(a.mine));
  if (a.mine.IsSubsetOf(b.mine) && b.mine.IsSubsetOf(a.mine)) {
    EXPECT_EQ(a.mine, b.mine);
  }
}

TEST_P(BitsetFuzzTest, HashEqualityContract) {
  Rng rng(GetParam() ^ 0xfe);
  ModelPair a = RandomSet(rng, 0.4);
  SmallBitset copy = a.mine;
  EXPECT_EQ(copy.Hash(), a.mine.Hash());
  // Flipping any single bit changes the hash (for this mixer, with
  // overwhelming probability; deterministic here since seeds are fixed).
  size_t bit = rng.NextBelow(kBits);
  SmallBitset flipped = a.mine;
  if (flipped.Test(bit)) {
    flipped.Reset(bit);
  } else {
    flipped.Set(bit);
  }
  EXPECT_NE(flipped.Hash(), a.mine.Hash());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitsetFuzzTest,
                         ::testing::Range(uint64_t{1000}, uint64_t{1010}));

// ---------------------------------------------------------------------------
// Op-sequence fuzzer: SmallBitset vs BoolVecModel.
// ---------------------------------------------------------------------------

/// Random set of the given universe, mirrored into the model.
void FillRandom(Rng& rng, size_t universe, double density, SmallBitset& mine,
                BoolVecModel& ref) {
  for (size_t b = 0; b < universe; ++b) {
    if (rng.NextBool(density)) {
      mine.Set(b);
      ref.Set(b);
    }
  }
}

/// Drives a SmallBitset and the model through `rounds` random
/// mutating/combining ops over [0, universe), comparing every observable
/// after each op. Also cross-checks the binary predicates and operators
/// against model results each round.
void RunOpSequence(uint64_t seed, size_t universe, int rounds) {
  SCOPED_TRACE(::testing::Message()
               << "universe=" << universe << " seed=" << seed);
  Rng rng(seed);
  SmallBitset x;
  BoolVecModel mx;
  FillRandom(rng, universe, rng.NextDouble(), x, mx);
  for (int round = 0; round < rounds; ++round) {
    SmallBitset y;
    BoolVecModel my;
    FillRandom(rng, universe, rng.NextDouble(), y, my);
    switch (rng.NextBelow(7)) {
      case 0: {
        size_t bit = rng.NextBelow(universe);
        x.Set(bit);
        mx.Set(bit);
        break;
      }
      case 1: {
        size_t bit = rng.NextBelow(universe);
        x.Reset(bit);
        mx.Reset(bit);
        break;
      }
      case 2:
        x &= y;
        mx = BoolVecModel::And(mx, my);
        break;
      case 3:
        x |= y;
        mx = BoolVecModel::Or(mx, my);
        break;
      case 4:
        x = x - y;
        mx = BoolVecModel::Minus(mx, my);
        break;
      case 5:
        x = x ^ y;
        mx = BoolVecModel::Xor(mx, my);
        break;
      case 6:  // Degenerate endpoints: jump to empty or full.
        if (rng.NextBool(0.5)) {
          x = SmallBitset{};
          mx = BoolVecModel{};
        } else {
          x = SmallBitset::AllSet(universe);
          mx = BoolVecModel::AllSet(universe);
        }
        break;
    }
    ASSERT_NO_FATAL_FAILURE(
        ExpectMatchesModel(x, mx, universe));
    // Binary observables against the model, including the self cases.
    ASSERT_EQ(x.IsSubsetOf(y), mx.IsSubsetOf(my));
    ASSERT_EQ(y.IsSubsetOf(x), my.IsSubsetOf(mx));
    ASSERT_EQ(x == y, mx.Equals(my));
    ASSERT_EQ((x & y).Count(), BoolVecModel::And(mx, my).Count());
    ASSERT_EQ((x | y).Count(), BoolVecModel::Or(mx, my).Count());
    ASSERT_TRUE(x.IsSubsetOf(x));
    ASSERT_TRUE((x & y).IsSubsetOf(x));
  }
}

/// Universes straddling every word boundary up to SmallBitset's 256-bit
/// capacity.
constexpr size_t kSmallUniverses[] = {1, 7, 63, 64, 65, 255, 256};

class SharedBitsetFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SharedBitsetFuzzTest, SmallBitsetOpSequencesMatchModel) {
  for (size_t universe : kSmallUniverses) {
    RunOpSequence(GetParam() ^ universe, universe, 40);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedBitsetFuzzTest,
                         ::testing::Range(uint64_t{2000}, uint64_t{2010}));

}  // namespace
}  // namespace util
}  // namespace jinfer
