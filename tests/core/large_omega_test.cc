// Golden-transcript regressions for large class counts and multi-word
// Omega: full interactive sessions whose every asked question, answer and
// pre-question informative weight is pinned by a Mix64-chain fingerprint.
// These freeze the end-to-end behavior of the packed word-kernel sweeps —
// any reordering of candidate evaluation, tie-breaking or u-count
// arithmetic shows up as a fingerprint mismatch, not a silent drift. The
// goldens were captured from the per-candidate reference paths and are
// build-type independent (all-integer logic).

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/inference.h"
#include "core/oracle.h"
#include "core/signature_index.h"
#include "core/strategies/optimal_strategy.h"
#include "core/strategy.h"
#include "util/bitset.h"
#include "workload/synthetic.h"

namespace jinfer {
namespace core {
namespace {

/// Mix64 chain over (class, label, informative-before) of every
/// interaction, in session order. Chained per util::Mix64's contract.
uint64_t TraceFingerprint(const std::vector<InteractionRecord>& trace) {
  uint64_t h = 0;
  for (const auto& rec : trace) {
    h = util::Mix64(rec.cls + h);
    h = util::Mix64((rec.label == Label::kPositive ? 1 : 2) + h);
    h = util::Mix64(rec.informative_before + h);
  }
  return h;
}

struct SessionGolden {
  size_t num_classes;
  size_t num_interactions;
  uint64_t fingerprint;
};

InferenceResult RunGoldenSession(const workload::SyntheticConfig& config,
                                 uint64_t seed, StrategyKind kind,
                                 const SessionGolden& golden) {
  auto inst = workload::GenerateSynthetic(config, seed);
  JINFER_CHECK(inst.ok(), "generate failed");
  auto index = SignatureIndex::Build(inst->r, inst->p);
  JINFER_CHECK(index.ok(), "build failed");
  EXPECT_EQ(index->num_classes(), golden.num_classes);

  GoalOracle oracle(index->omega().PredicateFromPairs({{0, 0}, {1, 1}}));
  auto strategy = MakeStrategy(kind);
  auto result = RunInference(*index, *strategy, oracle);
  JINFER_CHECK(result.ok(), "inference failed");
  EXPECT_EQ(result->num_interactions, golden.num_interactions);
  EXPECT_EQ(TraceFingerprint(result->trace), golden.fingerprint);
  // The goal {(A1,B1),(A2,B2)} is recovered exactly in all three sessions.
  EXPECT_EQ(result->predicate,
            index->omega().PredicateFromPairs({{0, 0}, {1, 1}}));
  return std::move(*result);
}

// 260 signature classes (> SmallBitset::kMaxBits of them), single-word
// Omega: the batch entropy^2 sweep drives every question of a full L2S
// session over a class list longer than any bitset capacity.
TEST(LargeOmegaTranscriptTest, L2SOver260Classes) {
  RunGoldenSession(workload::SyntheticConfig{4, 4, 20, 6}, 101,
                   StrategyKind::kLookahead2,
                   SessionGolden{260, 7, 0xe6631818fefca9ccULL});
}

// |Omega| = 72 — a two-active-word universe — with 900 classes: the
// multi-word paths (InferenceState's word loops and the W = 2 sweep)
// carry the whole L1S session.
TEST(LargeOmegaTranscriptTest, L1SMultiWord900Classes) {
  RunGoldenSession(workload::SyntheticConfig{9, 8, 30, 3}, 101,
                   StrategyKind::kLookahead1,
                   SessionGolden{900, 11, 0xae14c15ee642ea8bULL});
}

// The 18-class minimax instance (the BM_MinimaxValueEngineLarge shape):
// the OPT strategy's full alpha-beta search rides the scoped apply/undo
// delta frames over the packed arrays; both the played session and the
// game value are pinned.
TEST(LargeOmegaTranscriptTest, OptInstanceSessionAndValue) {
  workload::SyntheticConfig config{3, 2, 8, 4};
  RunGoldenSession(config, 20140324, StrategyKind::kOptimal,
                   SessionGolden{18, 5, 0x624b9ef4263f30a3ULL});

  auto inst = workload::GenerateSynthetic(config, 20140324);
  ASSERT_TRUE(inst.ok());
  auto index = SignatureIndex::Build(inst->r, inst->p);
  ASSERT_TRUE(index.ok());
  InferenceState state(*index);
  EXPECT_EQ(MinimaxInteractions(state), 6u);
}

}  // namespace
}  // namespace core
}  // namespace jinfer
