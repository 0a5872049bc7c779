// Backend parity: every compiled-and-supported SIMD kernel backend must
// be bit-identical to the scalar reference — the fused u± sweep across
// word widths 1..4, lane tails and witness counts, the tiled sweep against
// the monolithic block for assorted tilings, and the entropy columns and
// picks of a real session. Widths past 4 words must abort on every
// backend. The loops run over SupportedKernelBackends(), so the test
// passes (vacuously shrinking) on hardware without AVX while covering
// everything the bench hardware can attest.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/entropy.h"
#include "core/inference_state.h"
#include "core/signature_index.h"
#include "testing/kernel_backends.h"
#include "util/rng.h"
#include "util/simd/sweep.h"
#include "workload/synthetic.h"

namespace jinfer {
namespace util {
namespace simd {
namespace {

std::vector<uint64_t> RandomWords(Rng& rng, size_t n) {
  std::vector<uint64_t> v(n);
  for (auto& w : v) w = rng.Next();
  return v;
}

TEST(KernelBackendTest, ScalarAlwaysSupported) {
  ASSERT_TRUE(KernelBackendSupported(KernelBackend::kScalar));
  ASSERT_FALSE(SupportedKernelBackends().empty());
  ASSERT_EQ(SupportedKernelBackends().front(), KernelBackend::kScalar);
}

TEST(KernelBackendTest, NamesRoundTrip) {
  EXPECT_STREQ(KernelBackendName(KernelBackend::kScalar), "scalar");
  EXPECT_STREQ(KernelBackendName(KernelBackend::kAvx2), "avx2");
  EXPECT_STREQ(KernelBackendName(KernelBackend::kAvx512), "avx512");
}

TEST(KernelBackendTest, SetKernelBackendRejectsUnsupported) {
  // At least one of the vector backends is unsupported somewhere; what we
  // can always assert is that a rejected set leaves the active backend
  // unchanged and a supported set takes effect.
  const KernelBackend ambient = ActiveKernelBackend();
  for (KernelBackend b : SupportedKernelBackends()) {
    ASSERT_TRUE(SetKernelBackend(b));
    ASSERT_EQ(ActiveKernelBackend(), b);
  }
  ASSERT_TRUE(SetKernelBackend(ambient));
}

/// A synthetic packed sweep instance shaped like InferenceState's arrays:
/// keys ⊆ sigs per class (the invariant the real arrays hold), counts in
/// [1, 4], witnesses random.
struct SweepFixture {
  std::vector<uint64_t> keys, sigs, cnts, negs;
  SweepArgs args;

  SweepFixture(uint64_t seed, size_t n, size_t words, size_t num_negs) {
    Rng rng(seed);
    sigs = RandomWords(rng, n * words);
    keys.resize(n * words);
    for (size_t i = 0; i < n * words; ++i) keys[i] = rng.Next() & sigs[i];
    cnts.resize(n);
    for (auto& c : cnts) c = 1 + rng.NextBelow(4);
    negs = RandomWords(rng, num_negs * words);
    args.keys = keys.data();
    args.sigs = sigs.data();
    args.cnts = cnts.data();
    args.negs = negs.data();
    args.num_negs = num_negs;
    args.words = words;
    args.n = n;
  }
};

// The full driver (zero-fill + tiling + −1 correction) must produce the
// same columns on every backend. Candidate counts straddle the lane
// widths (4, 8) and the word-boundary universes the fuzzer uses.
TEST(KernelBackendTest, SweepParityAcrossBackends) {
  const size_t kCandidates[] = {1, 2, 5, 63, 64, 65, 255, 256, 257};
  const size_t kNegCounts[] = {0, 1, 3};
  for (size_t words = 1; words <= 4; ++words) {
    for (size_t n : kCandidates) {
      for (size_t num_negs : kNegCounts) {
        SweepFixture fx(0xbeef00 + words * 131 + n * 7 + num_negs, n, words,
                        num_negs);
        std::vector<uint64_t> want_pos(n), want_neg(n);
        {
          testing::ScopedKernelBackend forced(KernelBackend::kScalar);
          SweepUCounts(fx.args, want_pos.data(), want_neg.data());
        }
        for (KernelBackend backend : SupportedKernelBackends()) {
          testing::ScopedKernelBackend forced(backend);
          std::vector<uint64_t> got_pos(n, 0xdead), got_neg(n, 0xdead);
          SweepUCounts(fx.args, got_pos.data(), got_neg.data());
          ASSERT_EQ(got_pos, want_pos)
              << KernelBackendName(backend) << " W=" << words << " n=" << n
              << " negs=" << num_negs;
          ASSERT_EQ(got_neg, want_neg)
              << KernelBackendName(backend) << " W=" << words << " n=" << n
              << " negs=" << num_negs;
        }
      }
    }
  }
}

// Any tiling must reproduce the monolithic block bit for bit, on every
// backend — including degenerate one-candidate/one-class tiles and tiles
// that do not divide n.
TEST(KernelBackendTest, TiledSweepMatchesMonolithic) {
  const size_t n = 300;
  const size_t words = 2;
  SweepFixture fx(0x7171, n, words, 2);
  for (KernelBackend backend : SupportedKernelBackends()) {
    std::vector<uint64_t> want_pos(n, 0), want_neg(n, 0);
    internal::SweepRangeTiled(backend, fx.args, 0, n, SweepTiling{n, n},
                              want_pos.data(), want_neg.data());
    const SweepTiling tilings[] = {{1, 1},   {1, 7},    {7, 1},  {16, 16},
                                   {37, 53}, {128, 64}, {299, 2}, {512, 512}};
    for (const SweepTiling& t : tilings) {
      std::vector<uint64_t> got_pos(n, 0), got_neg(n, 0);
      internal::SweepRangeTiled(backend, fx.args, 0, n, t, got_pos.data(),
                                got_neg.data());
      ASSERT_EQ(got_pos, want_pos) << KernelBackendName(backend) << " i_tile="
                                   << t.i_tile << " j_tile=" << t.j_tile;
      ASSERT_EQ(got_neg, want_neg) << KernelBackendName(backend) << " i_tile="
                                   << t.i_tile << " j_tile=" << t.j_tile;
    }
  }
}

// The kernels cover W = 1..4 (a JoinPredicate is four words): a wider
// sweep is a caller bug, and every backend's sweep block aborts on it
// (util::WithWidth) rather than computing anything.
TEST(KernelBackendDeathTest, SweepPastFourWordsAborts) {
  const size_t n = 16;
  SweepFixture fx(0x5ca1ab1e, n, 5, 1);
  for (KernelBackend backend : SupportedKernelBackends()) {
    testing::ScopedKernelBackend forced(backend);
    std::vector<uint64_t> u_pos(n), u_neg(n);
    EXPECT_DEATH(SweepUCounts(fx.args, u_pos.data(), u_neg.data()),
                 "sweep over 5 words: the kernels cover 1..4")
        << KernelBackendName(backend);
  }
}

// End-to-end: the entropy columns and the skyline argmin pick — the
// quantities that decide which question a session asks — are identical on
// every backend, on a real index, at the empty sample and mid-session.
TEST(KernelBackendTest, EntropyColumnsAndPicksMatchAcrossBackends) {
  auto inst = workload::GenerateSynthetic({9, 8, 30, 3}, 101);
  ASSERT_TRUE(inst.ok());
  auto index = core::SignatureIndex::Build(inst->r, inst->p, {});
  ASSERT_TRUE(index.ok());
  core::InferenceState state(*index);
  for (int step = 0;; ++step) {
    std::vector<core::Entropy> want;
    {
      testing::ScopedKernelBackend forced(KernelBackend::kScalar);
      core::EntropyBatchScratch scratch;
      core::EntropyOfAll(state, scratch, want);
    }
    for (KernelBackend backend : SupportedKernelBackends()) {
      testing::ScopedKernelBackend forced(backend);
      core::EntropyBatchScratch scratch;
      std::vector<core::Entropy> got;
      core::EntropyOfAll(state, scratch, got);
      ASSERT_EQ(got, want) << KernelBackendName(backend) << " step " << step;
    }
    if (step == 3 || state.NumInformativeClasses() == 0) break;
    // Walk a deterministic session prefix: label the first informative
    // class, alternating signs.
    core::ClassId cls = state.InformativeClassAt(0);
    core::Label label =
        step % 2 == 0 ? core::Label::kPositive : core::Label::kNegative;
    ASSERT_TRUE(state.ApplyLabel(cls, label).ok());
  }
}

}  // namespace
}  // namespace simd
}  // namespace util
}  // namespace jinfer
