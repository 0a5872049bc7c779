#include "core/strategy.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/lattice.h"
#include "core/oracle.h"
#include "core/inference.h"
#include "core/strategies/lookahead_strategy.h"
#include "testing/local_strategies_reference.h"
#include "testing/paper_fixtures.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace jinfer {
namespace core {
namespace {

// --- Naming and factory -------------------------------------------------------

TEST(StrategyKindTest, NamesRoundTrip) {
  for (StrategyKind kind : {StrategyKind::kRandom, StrategyKind::kBottomUp,
                            StrategyKind::kTopDown, StrategyKind::kLookahead1,
                            StrategyKind::kLookahead2,
                            StrategyKind::kLookahead3,
                            StrategyKind::kExpectedGain}) {
    auto parsed = StrategyKindFromName(StrategyKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_TRUE(StrategyKindFromName("BOGUS").status().IsNotFound());
}

TEST(StrategyKindTest, PaperStrategiesInReportingOrder) {
  auto kinds = PaperStrategies();
  ASSERT_EQ(kinds.size(), 5u);
  EXPECT_EQ(StrategyKindName(kinds[0]), std::string("BU"));
  EXPECT_EQ(StrategyKindName(kinds[1]), std::string("TD"));
  EXPECT_EQ(StrategyKindName(kinds[2]), std::string("L1S"));
  EXPECT_EQ(StrategyKindName(kinds[3]), std::string("L2S"));
  EXPECT_EQ(StrategyKindName(kinds[4]), std::string("RND"));
}

TEST(StrategyFactoryTest, NamesMatch) {
  for (StrategyKind kind : PaperStrategies()) {
    auto strategy = MakeStrategy(kind, 1);
    EXPECT_EQ(strategy->name(), std::string(StrategyKindName(kind)));
  }
}

// --- BU (§4.3, Algorithm 2) ---------------------------------------------------

TEST(BottomUpTest, FirstPickIsTheEmptySignature) {
  // §4.3: BU first asks (t3,t1'), the tuple corresponding to ∅.
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);
  auto bu = MakeStrategy(StrategyKind::kBottomUp);
  auto pick = bu->SelectNext(state);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, testing::ClassOf(index, 2, 0));
}

TEST(BottomUpTest, AfterNegativeMovesToSizeOne) {
  // §4.3: after labeling ∅ negative, BU selects (t2,t1') = {(A1,B3)}.
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);
  ASSERT_TRUE(
      state.ApplyLabel(testing::ClassOf(index, 2, 0), Label::kNegative).ok());
  auto bu = MakeStrategy(StrategyKind::kBottomUp);
  auto pick = bu->SelectNext(state);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, testing::ClassOf(index, 1, 0));
}

TEST(BottomUpTest, GoalEmptyTakesOneInteraction) {
  // §5.3: the goal ∅ is inferred with a single interaction under BU.
  SignatureIndex index = testing::Example21Index();
  auto bu = MakeStrategy(StrategyKind::kBottomUp);
  GoalOracle oracle{JoinPredicate()};
  auto result = RunInference(index, *bu, oracle);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_interactions, 1u);
  EXPECT_TRUE(index.EquivalentOnInstance(result->predicate, JoinPredicate()));
}

// --- TD (§4.3, Algorithm 3) ---------------------------------------------------

TEST(TopDownTest, FirstPickIsMaximal) {
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);
  auto td = MakeStrategy(StrategyKind::kTopDown);
  auto pick = td->SelectNext(state);
  ASSERT_TRUE(pick.has_value());
  EXPECT_TRUE(index.cls(*pick).maximal);
  EXPECT_EQ(index.cls(*pick).signature.Count(), 3u);
}

TEST(TopDownTest, AllNegativesInferOmegaWithoutLabelingEverything) {
  // §4.3: labeling the ⊆-maximal signatures negative suffices to infer Ω —
  // on Example 2.1 that is the 7 maximal signatures, not all 12 tuples.
  SignatureIndex index = testing::Example21Index();
  auto td = MakeStrategy(StrategyKind::kTopDown);
  GoalOracle oracle{index.omega().Full()};
  auto result = RunInference(index, *td, oracle);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_interactions, 7u);
  EXPECT_EQ(result->predicate, index.omega().Full());
}

TEST(TopDownTest, SwitchesToBottomUpAfterPositive) {
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);
  ASSERT_TRUE(
      state.ApplyLabel(testing::ClassOf(index, 0, 2), Label::kPositive).ok());
  auto td = MakeStrategy(StrategyKind::kTopDown);
  auto bu = MakeStrategy(StrategyKind::kBottomUp);
  EXPECT_EQ(td->SelectNext(state), bu->SelectNext(state));
}

TEST(TopDownTest, BeatsBottomUpOnLargeGoals) {
  // BU's stated weakness (§4.3): with an all-negative user it labels every
  // tuple; TD needs only the maximal ones.
  SignatureIndex index = testing::Example21Index();
  auto bu = MakeStrategy(StrategyKind::kBottomUp);
  auto td = MakeStrategy(StrategyKind::kTopDown);
  GoalOracle oracle_bu{index.omega().Full()};
  GoalOracle oracle_td{index.omega().Full()};
  auto bu_result = RunInference(index, *bu, oracle_bu);
  auto td_result = RunInference(index, *td, oracle_td);
  ASSERT_TRUE(bu_result.ok());
  ASSERT_TRUE(td_result.ok());
  EXPECT_EQ(bu_result->num_interactions, 12u);
  EXPECT_LT(td_result->num_interactions, bu_result->num_interactions);
}

// --- BU and TD walk the index's visiting orders -------------------------------
//
// Differential against the seed's full scans (tests/testing/): at every
// state a session or a scoped label walk reaches, the picks read from
// ClassesBySize/MaximalClasses must equal the scans' picks.

struct PickCase {
  const char* name;
  workload::SyntheticConfig config;
  uint64_t seed;
  bool compress;
  bool reload;       ///< Run on a FromSections reassembly of the build.
  bool omega_class;  ///< The instance holds a class with signature Ω.
};

void PrintTo(const PickCase& pc, std::ostream* os) { *os << pc.name; }

class LocalPickDifferentialTest : public ::testing::TestWithParam<PickCase> {
 protected:
  /// Compares both picks at `state`; counts the states compared and those
  /// where TD took its fallback (no informative maximal class before the
  /// first positive).
  void ExpectPicksMatch(const InferenceState& state) {
    ++states_;
    EXPECT_EQ(bu_->SelectNext(state), ReferenceBottomUpPick(state));
    EXPECT_EQ(td_->SelectNext(state), ReferenceTopDownPick(state));
    if (!state.HasPositiveExample() && state.NumInformativeClasses() > 0) {
      bool maximal_left = false;
      for (ClassId c : state.index().MaximalClasses()) {
        maximal_left |= state.IsInformative(c);
      }
      if (!maximal_left) ++fallbacks_;
    }
  }

  /// Every node of the label tree below `state`, `depth` labels deep,
  /// branching on up to four informative classes with both labels.
  void Walk(InferenceState& state, int depth) {
    ExpectPicksMatch(state);
    if (depth == 0 || state.NumInformativeClasses() == 0) return;
    std::vector<ClassId> branch = {
        *bu_->SelectNext(state), *td_->SelectNext(state),
        state.InformativeClassAt(0),
        state.InformativeClassAt(state.NumInformativeClasses() / 2)};
    std::sort(branch.begin(), branch.end());
    branch.erase(std::unique(branch.begin(), branch.end()), branch.end());
    for (ClassId c : branch) {
      for (Label label : {Label::kPositive, Label::kNegative}) {
        state.ApplyLabelScoped(c, label);
        Walk(state, depth - 1);
        state.UndoLabel();
      }
    }
  }

  /// One GoalOracle session driven by `driver`, checking every state.
  void Session(const SignatureIndex& index, const JoinPredicate& goal,
               Strategy& driver) {
    InferenceState state(index);
    GoalOracle oracle{goal};
    while (true) {
      ExpectPicksMatch(state);
      std::optional<ClassId> pick = driver.SelectNext(state);
      if (!pick) break;
      ASSERT_TRUE(
          state.ApplyLabel(*pick, oracle.LabelClass(index, *pick)).ok());
    }
  }

  std::unique_ptr<Strategy> bu_ = MakeStrategy(StrategyKind::kBottomUp);
  std::unique_ptr<Strategy> td_ = MakeStrategy(StrategyKind::kTopDown);
  size_t states_ = 0;
  size_t fallbacks_ = 0;
};

TEST_P(LocalPickDifferentialTest, PicksEqualTheFullScans) {
  const PickCase& pc = GetParam();
  auto inst = workload::GenerateSynthetic(pc.config, pc.seed);
  ASSERT_TRUE(inst.ok());
  auto built =
      SignatureIndex::Build(inst->r, inst->p, {.compress = pc.compress});
  ASSERT_TRUE(built.ok());
  std::optional<SignatureIndex> reloaded;
  if (pc.reload) {
    auto sections = SignatureIndex::FromSections(
        built->omega(), built->num_tuples(), built->compressed(),
        built->classes(), built->r_codes(), built->p_codes(), nullptr);
    ASSERT_TRUE(sections.ok()) << sections.status().ToString();
    reloaded.emplace(std::move(sections).ValueOrDie());
  }
  const SignatureIndex& index = pc.reload ? *reloaded : *built;

  // Goals of 0-3 atoms: ∅, every singleton of Ω, and for k = 1..3 the
  // first k atoms of random class signatures (non-nullable goals, so
  // sessions meet positives) and k random atoms (often nullable on the
  // sparse shapes, so TD stays in its maximal phase).
  std::vector<JoinPredicate> goals = {JoinPredicate()};
  const size_t omega_size = index.omega().size();
  for (size_t bit = 0; bit < omega_size; ++bit) {
    goals.push_back(JoinPredicate::Singleton(bit));
  }
  util::Rng rng(pc.seed);
  for (size_t k = 1; k <= 3; ++k) {
    for (int draw = 0; draw < 6; ++draw) {
      const JoinPredicate& sig =
          index.cls(static_cast<ClassId>(rng.NextBelow(index.num_classes())))
              .signature;
      JoinPredicate from_class;
      size_t taken = 0;
      sig.ForEachSetBit([&](size_t bit) {
        if (taken++ < k) from_class.Set(bit);
      });
      goals.push_back(from_class);
      JoinPredicate random;
      for (size_t i = 0; i < k; ++i) random.Set(rng.NextBelow(omega_size));
      goals.push_back(random);
    }
  }
  for (const JoinPredicate& goal : goals) {
    Session(index, goal, *bu_);
    Session(index, goal, *td_);
  }

  InferenceState root(index);
  Walk(root, 3);

  EXPECT_GT(states_, goals.size());
  const std::optional<ClassId> omega_class =
      index.ClassOfSignature(index.omega().Full());
  ASSERT_EQ(omega_class.has_value(), pc.omega_class);
  if (omega_class) {
    // Ω-signature classes are the only maximal ones (several when
    // uncompressed) and are born certain-positive: every pick before the
    // first positive is TD's fallback.
    for (ClassId c : index.MaximalClasses()) {
      EXPECT_EQ(index.cls(c).signature, index.omega().Full());
    }
    EXPECT_GT(fallbacks_, 0u);
  } else {
    EXPECT_EQ(fallbacks_, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LocalPickDifferentialTest,
    ::testing::Values(
        PickCase{"Shape33408", {3, 3, 40, 8}, 1, true, false, false},
        PickCase{"Shape33408Seed2", {3, 3, 40, 8}, 2, true, false, false},
        PickCase{"WideOmega98303", {9, 8, 30, 3}, 3, true, false, false},
        PickCase{"Uncompressed23204", {2, 3, 20, 4}, 4, false, false, false},
        PickCase{"OmegaClass22202", {2, 2, 20, 2}, 5, true, false, true},
        PickCase{"Reloaded33408", {3, 3, 40, 8}, 6, true, true, false},
        PickCase{"ReloadedUncompressed23204", {2, 3, 20, 4}, 7, false, true,
                 true},
        PickCase{"ReloadedOmegaClass22202", {2, 2, 20, 2}, 8, true, true,
                 true}),
    [](const ::testing::TestParamInfo<PickCase>& info) {
      return std::string(info.param.name);
    });

// --- L1S (§4.4, Algorithm 4) ---------------------------------------------------

TEST(LookaheadTest, L1SFirstPickHasSkylineMaxMinEntropy) {
  // With the corrected Figure 5 entropies, the unique skyline element with
  // min = 1 is (1,4), held only by (t2,t1').
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);
  auto l1s = MakeStrategy(StrategyKind::kLookahead1);
  auto pick = l1s->SelectNext(state);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, testing::ClassOf(index, 1, 0));
}

TEST(LookaheadTest, SingleInformativeShortCircuit) {
  // R = {1, 2}, P = {1}: the (1,1) tuple has signature Ω (born certain-
  // positive); only the (2,1) tuple with signature {} is informative.
  auto r = rel::Relation::Make("R", {"A"}, {{1}, {2}});
  auto p = rel::Relation::Make("P", {"B"}, {{1}});
  auto index = SignatureIndex::Build(*r, *p);
  ASSERT_TRUE(index.ok());
  InferenceState state(*index);
  ASSERT_EQ(state.NumInformativeClasses(), 1u);
  auto l2s = MakeStrategy(StrategyKind::kLookahead2);
  auto pick = l2s->SelectNext(state);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(index->cls(*pick).signature, JoinPredicate());
}

TEST(LookaheadTest, DepthAccessor) {
  LookaheadStrategy l3(3);
  EXPECT_EQ(l3.depth(), 3);
  EXPECT_EQ(l3.name(), std::string("L3S"));
}

// --- RND -----------------------------------------------------------------------

TEST(RandomTest, DeterministicGivenSeed) {
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);
  auto a = MakeStrategy(StrategyKind::kRandom, 77);
  auto b = MakeStrategy(StrategyKind::kRandom, 77);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(a->SelectNext(state), b->SelectNext(state));
  }
}

TEST(RandomTest, OnlyPicksInformativeClasses) {
  SignatureIndex index = testing::Example21Index();
  InferenceState state(index);
  ASSERT_TRUE(
      state.ApplyLabel(testing::ClassOf(index, 0, 2), Label::kPositive).ok());
  auto rnd = MakeStrategy(StrategyKind::kRandom, 5);
  for (int i = 0; i < 50; ++i) {
    auto pick = rnd->SelectNext(state);
    ASSERT_TRUE(pick.has_value());
    EXPECT_TRUE(state.IsInformative(*pick));
  }
}

TEST(RandomTest, ReturnsNulloptWhenNothingInformative) {
  auto r = rel::Relation::Make("R", {"A"}, {{1}});
  auto p = rel::Relation::Make("P", {"B"}, {{1}});
  auto index = SignatureIndex::Build(*r, *p);
  InferenceState state(*index);
  ASSERT_TRUE(state.ApplyLabel(0, Label::kPositive).ok());
  auto rnd = MakeStrategy(StrategyKind::kRandom, 5);
  EXPECT_EQ(rnd->SelectNext(state), std::nullopt);
}

// --- Every strategy, every goal: the core correctness property ----------------

struct StrategyGoalCase {
  StrategyKind kind;
  size_t goal_index;  // Into NonNullablePredicates(Example 2.1) + {Ω}.
};

class StrategyGoalTest
    : public ::testing::TestWithParam<std::tuple<StrategyKind, size_t>> {};

TEST_P(StrategyGoalTest, InfersInstanceEquivalentPredicate) {
  auto [kind, goal_idx] = GetParam();
  SignatureIndex index = testing::Example21Index();
  auto goals = NonNullablePredicates(index);
  ASSERT_TRUE(goals.ok());
  std::vector<JoinPredicate> all = *goals;
  all.push_back(index.omega().Full());  // 22 non-nullable goals + Ω.
  ASSERT_LT(goal_idx, all.size());
  const JoinPredicate& goal = all[goal_idx];

  auto strategy = MakeStrategy(kind, /*seed=*/goal_idx);
  GoalOracle oracle{goal};
  auto result = RunInference(index, *strategy, oracle);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(index.EquivalentOnInstance(result->predicate, goal))
      << StrategyKindName(kind) << " on goal "
      << index.omega().Format(goal) << " inferred "
      << index.omega().Format(result->predicate);
  EXPECT_LE(result->num_interactions, index.num_classes());
  EXPECT_GE(result->num_interactions, 1u);

  // The trace only contains informative-at-presentation tuples, and labels
  // match the goal.
  for (const auto& rec : result->trace) {
    EXPECT_EQ(rec.label, index.Selects(goal, rec.cls) ? Label::kPositive
                                                      : Label::kNegative);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesAllGoals, StrategyGoalTest,
    ::testing::Combine(
        ::testing::Values(StrategyKind::kRandom, StrategyKind::kBottomUp,
                          StrategyKind::kTopDown, StrategyKind::kLookahead1,
                          StrategyKind::kLookahead2,
                          StrategyKind::kExpectedGain),
        ::testing::Range(size_t{0}, size_t{23})));

}  // namespace
}  // namespace core
}  // namespace jinfer
