// Property tests for the delta-frame minimax engine against the retained
// seed implementation (testing/minimax_reference.h): identical minimax
// values, identical OPT picks and identical worst cases on randomized
// small instances, at 1 and N root-split workers; plus Zobrist
// hash-integrity and zero-copy steady-state assertions.

#include "core/strategies/minimax_engine.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/inference.h"
#include "core/oracle.h"
#include "core/strategies/optimal_strategy.h"
#include "core/strategy.h"
#include "testing/minimax_reference.h"
#include "testing/paper_fixtures.h"
#include "workload/synthetic.h"

namespace jinfer {
namespace core {
namespace {

constexpr int kManyThreads = 4;

/// The randomized corpus: small instances (the reference implementation is
/// the slow side) across a few shapes and seeds.
std::vector<SignatureIndex> PropertyCorpus() {
  std::vector<SignatureIndex> corpus;
  const workload::SyntheticConfig configs[] = {
      {2, 2, 12, 6}, {2, 2, 20, 8}, {2, 3, 6, 5}, {2, 2, 16, 5}};
  uint64_t seed = 20140324;
  for (const auto& config : configs) {
    for (int i = 0; i < 2; ++i) {
      auto inst = workload::GenerateSynthetic(config, seed++);
      if (!inst.ok()) continue;
      auto index = SignatureIndex::Build(inst->r, inst->p);
      if (!index.ok()) continue;
      // The reference side copies the state at every node; keep instances
      // small enough that it stays well inside its node budget.
      if (index->num_classes() > 13) continue;
      corpus.push_back(std::move(index).ValueOrDie());
    }
  }
  return corpus;
}

TEST(ZobristTableTest, DeterministicAndOrderIndependent) {
  ZobristTable a(16);
  ZobristTable b(16);
  EXPECT_EQ(a.Key(3, Label::kPositive), b.Key(3, Label::kPositive));
  EXPECT_NE(a.Key(3, Label::kPositive), a.Key(3, Label::kNegative));

  Sample s1 = {{2, Label::kPositive}, {5, Label::kNegative}};
  Sample s2 = {{5, Label::kNegative}, {2, Label::kPositive}};
  EXPECT_EQ(a.HashSample(s1), a.HashSample(s2));
  EXPECT_EQ(a.HashSample({}), ZobristTable::kEmptyHash);
}

TEST(ZobristTableTest, ApplyUndoHashIntegrity) {
  SignatureIndex index = testing::Example21Index();
  ZobristTable zobrist(index.num_classes());
  InferenceState state(index);

  const uint64_t h0 = zobrist.HashSample(state.sample());
  uint64_t h = h0;
  // Fold a few scoped labels in and out, checking after every transition
  // that (a) the incremental hash matches the from-scratch fold and
  // (b) the hash after undo equals the hash before apply.
  struct Step {
    ClassId cls;
    Label label;
    uint64_t hash_before;
  };
  std::vector<Step> steps;
  for (Label label : {Label::kNegative, Label::kPositive, Label::kNegative}) {
    if (state.NumInformativeClasses() == 0) break;
    ClassId cls = state.InformativeClassAt(0);
    steps.push_back({cls, label, h});
    h ^= zobrist.Key(cls, label);
    state.ApplyLabelScoped(cls, label);
    EXPECT_EQ(h, zobrist.HashSample(state.sample()));
  }
  ASSERT_GE(steps.size(), 2u);
  while (!steps.empty()) {
    state.UndoLabel();
    h ^= zobrist.Key(steps.back().cls, steps.back().label);  // Fold out.
    EXPECT_EQ(h, steps.back().hash_before);
    EXPECT_EQ(h, zobrist.HashSample(state.sample()));
    steps.pop_back();
  }
  EXPECT_EQ(h, h0);
}

// Both tables promise the same merge rule and the same depth-aware
// replacement rule; the serial one backs the adversary, the shared one
// every OPT pick. Each test runs against both through Lookup, one read
// interface over their two Find signatures.
using TtView = SharedTranspositionTable::View;

std::optional<TtView> Lookup(const TranspositionTable& tt, uint64_t hash) {
  const TranspositionTable::Entry* e = tt.Find(hash);
  if (e == nullptr) return std::nullopt;
  return TtView{e->value, e->kind};
}

std::optional<TtView> Lookup(const SharedTranspositionTable& tt,
                             uint64_t hash) {
  TtView view;
  if (!tt.Find(hash, &view)) return std::nullopt;
  return view;
}

template <typename Table>
class TranspositionTableTest : public ::testing::Test {};

using TranspositionTables =
    ::testing::Types<TranspositionTable, SharedTranspositionTable>;
TYPED_TEST_SUITE(TranspositionTableTest, TranspositionTables);

TYPED_TEST(TranspositionTableTest, StoreFindAndMerge) {
  TypeParam tt(/*log2_entries=*/6);
  EXPECT_FALSE(Lookup(tt, 42).has_value());

  tt.Store(42, 5, /*exact=*/false);
  auto e = Lookup(tt, 42);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->value, 5u);
  EXPECT_EQ(e->kind, TranspositionTable::Entry::kLowerBound);

  tt.Store(42, 3, /*exact=*/false);  // Weaker bound never lowers.
  EXPECT_EQ(Lookup(tt, 42)->value, 5u);
  tt.Store(42, 7, /*exact=*/false);  // Tighter bound raises.
  EXPECT_EQ(Lookup(tt, 42)->value, 7u);

  tt.Store(42, 6, /*exact=*/true);  // Exact overwrites any bound.
  e = Lookup(tt, 42);
  EXPECT_EQ(e->value, 6u);
  EXPECT_EQ(e->kind, TranspositionTable::Entry::kExact);

  tt.Clear();
  EXPECT_FALSE(Lookup(tt, 42).has_value());
}

TYPED_TEST(TranspositionTableTest, DepthAwareReplacementKeepsDeepEntries) {
  TypeParam tt(/*log2_entries=*/3);  // 8 slots = one probe window.
  // Fill the window with depth-10 entries, then try to insert a shallow
  // one: it must be dropped, while a deeper one must land.
  for (uint64_t i = 0; i < 8; ++i) tt.Store(i * 8 + 1, 10, /*exact=*/true);
  tt.Store(100, 2, /*exact=*/true);
  EXPECT_FALSE(Lookup(tt, 100).has_value());  // Shallower: dropped.
  tt.Store(200, 50, /*exact=*/true);
  ASSERT_TRUE(Lookup(tt, 200).has_value());  // Deeper: evicted a shallow one.
  EXPECT_EQ(Lookup(tt, 200)->value, 50u);
}

TEST(MinimaxEngineTest, MatchesReferenceValueOnCorpusAtOneAndNThreads) {
  for (const SignatureIndex& index : PropertyCorpus()) {
    InferenceState state(index);
    const size_t expected = ReferenceMinimaxInteractions(state);

    for (int threads : {1, kManyThreads}) {
      MinimaxOptions options;
      options.threads = threads;
      MinimaxEngine engine(index, options);
      EXPECT_EQ(engine.Value(state), expected)
          << "classes=" << index.num_classes() << " threads=" << threads;
      // Warm-table determinism: a second solve must agree.
      EXPECT_EQ(engine.Value(state), expected);
    }

    // Mid-session states: push a label and compare the subtree values too.
    if (state.NumInformativeClasses() > 1) {
      state.ApplyLabelScoped(state.InformativeClassAt(0), Label::kNegative);
      const size_t sub_expected = ReferenceMinimaxInteractions(state);
      EXPECT_EQ(MinimaxInteractions(state), sub_expected);
      MinimaxOptions options;
      options.threads = kManyThreads;
      MinimaxEngine engine(index, options);
      EXPECT_EQ(engine.Value(state), sub_expected);
      state.UndoLabel();
    }
  }
}

TEST(MinimaxEngineTest, MatchesReferencePickAcrossWholeSessions) {
  for (const SignatureIndex& index : PropertyCorpus()) {
    // Walk a full session: at every state the engine pick (1 and N
    // threads) must equal the reference pick; then answer adversarially
    // (keep the larger subtree) and continue.
    InferenceState state(index);
    OptimalStrategy opt_serial(/*node_budget=*/5'000'000, /*threads=*/1);
    OptimalStrategy opt_parallel(/*node_budget=*/5'000'000,
                                 /*threads=*/kManyThreads);
    while (state.NumInformativeClasses() > 0) {
      std::optional<ClassId> expected = ReferenceOptimalPick(state);
      ASSERT_TRUE(expected.has_value());
      EXPECT_EQ(opt_serial.SelectNext(state), expected);
      EXPECT_EQ(opt_parallel.SelectNext(state), expected);

      auto [u_pos, u_neg] = state.CountNewlyUninformativeBoth(*expected);
      Label adversarial =
          u_pos <= u_neg ? Label::kPositive : Label::kNegative;
      ASSERT_TRUE(state.ApplyLabel(*expected, adversarial).ok());
    }
    EXPECT_EQ(opt_serial.SelectNext(state), std::nullopt);
  }
}

TEST(MinimaxEngineTest, WorstCaseMatchesReferenceForPaperStrategies) {
  SignatureIndex index = testing::Example21Index();
  for (StrategyKind kind :
       {StrategyKind::kBottomUp, StrategyKind::kTopDown,
        StrategyKind::kLookahead1, StrategyKind::kExpectedGain}) {
    auto a = MakeStrategy(kind);
    auto b = MakeStrategy(kind);
    EXPECT_EQ(WorstCaseInteractions(index, *a),
              ReferenceWorstCaseInteractions(index, *b))
        << StrategyKindName(kind);
  }
}

TEST(MinimaxEngineTest, ZeroStateCopiesInSteadyState) {
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);

  // Engine paths: minimax value, OPT session picks and the worst-case
  // adversary must never copy an InferenceState — scratch states are
  // replay-constructed, and the search walks delta frames.
  const uint64_t before = InferenceState::CopyCount();
  MinimaxInteractions(state);
  {
    MinimaxOptions options;
    options.threads = kManyThreads;
    MinimaxEngine engine(index, options);
    engine.Value(state);
    EXPECT_GT(engine.counters().nodes, 0u);
  }
  {
    auto td = MakeStrategy(StrategyKind::kTopDown);
    WorstCaseInteractions(index, *td);
  }
  {
    OptimalStrategy opt;
    GoalOracle oracle{JoinPredicate()};
    auto result = RunInference(index, opt, oracle);
    ASSERT_TRUE(result.ok());
  }
  EXPECT_EQ(InferenceState::CopyCount(), before);

  // Sanity of the instrumentation: the reference implementation copies
  // once per node, so the counter must move under it.
  ReferenceMinimaxInteractions(state);
  EXPECT_GT(InferenceState::CopyCount(), before);
}

TEST(MinimaxEngineTest, OptimalStrategyRebuildsEngineAcrossIndexes) {
  // One recycled strategy instance over several freshly built indexes:
  // the engine cache must rebuild (build-id identity), never reuse stale
  // Zobrist keys or table entries.
  OptimalStrategy opt;
  for (const SignatureIndex& index : PropertyCorpus()) {
    InferenceState state(index);
    EXPECT_EQ(opt.SelectNext(state), ReferenceOptimalPick(state));
  }
}

TEST(MinimaxEngineDeathTest, WorstCaseRejectsNondeterministicStrategy) {
  SignatureIndex index = testing::Example21Index();
  auto rnd = MakeStrategy(StrategyKind::kRandom, /*seed=*/1);
  EXPECT_DEATH(WorstCaseInteractions(index, *rnd), "deterministic");
}

TEST(MinimaxEngineTest, CountersReportSearchEffort) {
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);
  MinimaxEngine engine(index, {});
  engine.Value(state);
  const MinimaxCounters& counters = engine.counters();
  EXPECT_GT(counters.nodes, 0u);
  EXPECT_GT(counters.tt_stores, 0u);
  EXPECT_GT(counters.deepening_rounds, 0u);
  EXPECT_GE(counters.tt_probes, counters.tt_hits);
  engine.ResetCounters();
  EXPECT_EQ(engine.counters().nodes, 0u);
}

}  // namespace
}  // namespace core
}  // namespace jinfer
