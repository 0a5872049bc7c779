// Property harness for the batched u+/u- entropy sweeps: the fused
// column-wise paths (CountNewlyUninformativeAll, EntropyOfAll, the
// remaining==2 batch leaf inside EntropyKOf) must be bit-identical to the
// retained per-candidate reference recursion
// (testing/entropy_reference.h) — same entropies, same argmax picks, same
// values — across word regimes, with and without class compression, for
// indexes built at 1 and 4 threads, and under concurrent sweeps on
// per-thread states.

#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/entropy.h"
#include "core/inference_state.h"
#include "core/signature_index.h"
#include "testing/entropy_reference.h"
#include "testing/paper_fixtures.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace jinfer {
namespace core {
namespace {

SignatureIndex BuildSynthetic(const workload::SyntheticConfig& config,
                              uint64_t seed,
                              const SignatureIndexOptions& options = {}) {
  auto inst = workload::GenerateSynthetic(config, seed);
  JINFER_CHECK(inst.ok(), "generate failed");
  auto index = SignatureIndex::Build(inst->r, inst->p, options);
  JINFER_CHECK(index.ok(), "build failed");
  return std::move(*index);
}

// The L1S/L2S selection rule, applied to a precomputed entropy column:
// the index of the first candidate whose entropy equals the skyline
// max-min pick. Run on batch and reference columns it must select the
// same candidate — the "same question asked" property.
size_t PickOf(const std::vector<Entropy>& entropies) {
  Entropy target = SkylineMaxMin(entropies);
  for (size_t i = 0; i < entropies.size(); ++i) {
    if (entropies[i] == target) return i;
  }
  ADD_FAILURE() << "skyline pick not in column";
  return 0;
}

// Asserts every batched quantity against its per-candidate reference on
// the current state: u-counts and one-step entropies for every class,
// entropy^2 over a bounded candidate prefix (the reference is O(n^2) per
// class), and — when `deep` — entropy^3 over the first few classes (the
// reference recursion is O(n^3) per class, so a full-column k=3 compare
// is intractable on the multi-hundred-class instances).
void ExpectSweepMatchesReference(const InferenceState& state, bool deep) {
  const size_t n = state.NumInformativeClasses();
  if (n == 0) return;

  std::vector<uint64_t> u_pos, u_neg;
  state.CountNewlyUninformativeAll(u_pos, u_neg);
  for (size_t i = 0; i < n; ++i) {
    ClassId c = state.InformativeClassAt(i);
    auto [want_pos, want_neg] = state.CountNewlyUninformativeBoth(c);
    ASSERT_EQ(u_pos[i], want_pos) << "class " << c;
    ASSERT_EQ(u_neg[i], want_neg) << "class " << c;
  }

  EntropyBatchScratch scratch;
  std::vector<Entropy> batch;
  EntropyOfAll(state, scratch, batch);
  ASSERT_EQ(batch.size(), n);
  std::vector<Entropy> reference(n);
  for (size_t i = 0; i < n; ++i) {
    reference[i] = EntropyOf(state, state.InformativeClassAt(i));
    ASSERT_EQ(batch[i], reference[i])
        << "class " << state.InformativeClassAt(i);
  }
  ASSERT_EQ(PickOf(batch), PickOf(reference));

  InferenceState scratch_state = state;
  const size_t k2_classes = n < 32 ? n : 32;
  for (size_t i = 0; i < k2_classes; ++i) {
    ClassId c = state.InformativeClassAt(i);
    Entropy want = EntropyKOfReference(state, c, 2);
    ASSERT_EQ(EntropyKOf(state, c, 2), want) << "k=2 class " << c;
    ASSERT_EQ(EntropyKOfInPlace(scratch_state, c, 2, scratch), want)
        << "in-place k=2 class " << c;
  }
  if (deep) {
    const size_t k3_classes = n < 3 ? n : 3;
    for (size_t i = 0; i < k3_classes; ++i) {
      ClassId c = state.InformativeClassAt(i);
      Entropy want = EntropyKOfReference(state, c, 3);
      ASSERT_EQ(EntropyKOf(state, c, 3), want) << "k=3 class " << c;
      ASSERT_EQ(EntropyKOfInPlace(scratch_state, c, 3, scratch), want)
          << "in-place k=3 class " << c;
    }
  }
  // The in-place sweeps must have restored the scratch state exactly.
  ASSERT_EQ(scratch_state.InformativeClasses(), state.InformativeClasses());
  ASSERT_EQ(scratch_state.InferredPredicate(), state.InferredPredicate());
}

// Checks the sweep property at the empty sample and along a few random
// session prefixes, so mid-session states (shrunken predicate, live
// negative witnesses) are covered too. The expensive k=3 reference
// compare runs at the endpoints only; the per-step checks cover the
// batch sweep and k=2.
void RunSweepProperty(const SignatureIndex& index, uint64_t seed) {
  InferenceState state(index);
  ASSERT_NO_FATAL_FAILURE(ExpectSweepMatchesReference(state, /*deep=*/true));
  util::Rng rng(seed);
  for (int step = 0; step < 6; ++step) {
    const size_t n = state.NumInformativeClasses();
    if (n == 0) break;
    ClassId cls = state.InformativeClassAt(rng.NextBelow(n));
    Label label = rng.NextBelow(2) == 0 ? Label::kPositive : Label::kNegative;
    ASSERT_TRUE(state.ApplyLabel(cls, label).ok());
    ASSERT_NO_FATAL_FAILURE(
        ExpectSweepMatchesReference(state, /*deep=*/step == 5))
        << "seed " << seed << " step " << step;
  }
}

TEST(EntropySweepPropertyTest, PaperExample) {
  SignatureIndex index = testing::Example21Index();
  RunSweepProperty(index, 1);
}

TEST(EntropySweepPropertyTest, SingleWordRegime) {
  SignatureIndex index =
      BuildSynthetic(workload::SyntheticConfig{3, 3, 24, 3}, 7);
  for (uint64_t seed = 10; seed < 13; ++seed) {
    ASSERT_NO_FATAL_FAILURE(RunSweepProperty(index, seed));
  }
}

TEST(EntropySweepPropertyTest, MultiWordRegime) {
  // |Omega| = 72 (two words) and 196 (four words, the fallback-width
  // regime): the generic kernels must match the reference exactly.
  SignatureIndex two = BuildSynthetic(workload::SyntheticConfig{9, 8, 10, 3}, 11);
  SignatureIndex four =
      BuildSynthetic(workload::SyntheticConfig{14, 14, 12, 3}, 13);
  for (uint64_t seed = 20; seed < 22; ++seed) {
    ASSERT_NO_FATAL_FAILURE(RunSweepProperty(two, seed));
    ASSERT_NO_FATAL_FAILURE(RunSweepProperty(four, seed));
  }
}

TEST(EntropySweepPropertyTest, CompressionOnAndOff) {
  workload::SyntheticConfig config{4, 3, 10, 3};
  SignatureIndexOptions uncompressed;
  uncompressed.compress = false;
  SignatureIndex on = BuildSynthetic(config, 19);
  SignatureIndex off = BuildSynthetic(config, 19, uncompressed);
  RunSweepProperty(on, 31);
  RunSweepProperty(off, 31);
}

TEST(EntropySweepPropertyTest, ParallelIndexBuildSameEntropies) {
  // The index is identical for every build thread count, so the batch
  // sweep over a 4-thread build must reproduce the 1-thread entropies.
  workload::SyntheticConfig config{9, 8, 20, 3};
  SignatureIndexOptions four_threads;
  four_threads.threads = 4;
  SignatureIndex serial = BuildSynthetic(config, 23);
  SignatureIndex parallel = BuildSynthetic(config, 23, four_threads);
  InferenceState s1(serial), s4(parallel);
  EntropyBatchScratch b1, b4;
  std::vector<Entropy> e1, e4;
  EntropyOfAll(s1, b1, e1);
  EntropyOfAll(s4, b4, e4);
  ASSERT_EQ(e1, e4);
  ASSERT_NO_FATAL_FAILURE(ExpectSweepMatchesReference(s4, /*deep=*/false));
}

TEST(EntropySweepPropertyTest, ConcurrentSweepsShareNothing) {
  // Four threads, each with its own state copy and scratch, batch-sweep
  // the same instance concurrently; all must reproduce the serial column
  // and the serial entropy^2 values. Runs under the TSan CI job.
  SignatureIndex index =
      BuildSynthetic(workload::SyntheticConfig{9, 8, 20, 3}, 29);
  InferenceState serial(index);
  EntropyBatchScratch serial_scratch;
  std::vector<Entropy> want;
  EntropyOfAll(serial, serial_scratch, want);
  const size_t n = serial.NumInformativeClasses() < 64
                       ? serial.NumInformativeClasses()
                       : 64;
  std::vector<Entropy> want_e2(n);
  for (size_t i = 0; i < n; ++i) {
    want_e2[i] = EntropyKOf(serial, serial.InformativeClassAt(i), 2);
  }

  std::vector<std::vector<Entropy>> got(4);
  std::vector<std::vector<Entropy>> got_e2(4, std::vector<Entropy>(n));
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      InferenceState mine(index);
      EntropyBatchScratch scratch;
      EntropyOfAll(mine, scratch, got[t]);
      for (size_t i = 0; i < n; ++i) {
        got_e2[t][i] =
            EntropyKOfInPlace(mine, mine.InformativeClassAt(i), 2, scratch);
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < 4; ++t) {
    ASSERT_EQ(got[t], want) << "thread " << t;
    ASSERT_EQ(got_e2[t], want_e2) << "thread " << t;
  }
}

}  // namespace
}  // namespace core
}  // namespace jinfer
