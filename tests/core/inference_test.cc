#include "core/inference.h"

#include <gtest/gtest.h>

#include "testing/lying_oracle.h"
#include "testing/paper_fixtures.h"

namespace jinfer {
namespace core {
namespace {

// --- Engine behavior -----------------------------------------------------------

TEST(InferenceEngineTest, TraceRecordsEveryInteraction) {
  SignatureIndex index = testing::Example21Index();
  auto bu = MakeStrategy(StrategyKind::kBottomUp);
  GoalOracle oracle{testing::Pred(index.omega(), {{0, 2}})};
  auto result = RunInference(index, *bu, oracle);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->trace.size(), result->num_interactions);
  // The informative weight shrinks monotonically along the trace.
  for (size_t i = 1; i < result->trace.size(); ++i) {
    EXPECT_LT(result->trace[i].informative_before,
              result->trace[i - 1].informative_before);
  }
}

TEST(InferenceEngineTest, TraceCanBeDisabled) {
  SignatureIndex index = testing::Example21Index();
  auto bu = MakeStrategy(StrategyKind::kBottomUp);
  GoalOracle oracle{testing::Pred(index.omega(), {{0, 2}})};
  InferenceOptions options;
  options.record_trace = false;
  auto result = RunInference(index, *bu, oracle, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->trace.empty());
  EXPECT_GT(result->num_interactions, 0u);
}

TEST(InferenceEngineTest, ReturnsOmegaWhenUserRejectsEverything) {
  // §3.3: with only negative examples the returned predicate is Ω.
  SignatureIndex index = testing::Example21Index();
  auto td = MakeStrategy(StrategyKind::kTopDown);
  GoalOracle oracle{index.omega().Full()};
  auto result = RunInference(index, *td, oracle);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->predicate, index.omega().Full());
}

TEST(InferenceEngineTest, SingleTupleInstanceSection33) {
  // §3.3: R1 × P1 has one tuple with T(t) = Ω. Every predicate selects it,
  // so it is certain-positive with zero labels; the session halts
  // immediately and returns T(S+) = Ω = {(A1,B1),(A2,B1)} — exactly the
  // instance-equivalent answer §3.3 prescribes (the paper spends one
  // interaction on it; our Γ recognizes it as uninformative up front).
  auto r = rel::Relation::Make("R1", {"A1", "A2"}, {{1, 1}});
  auto p = rel::Relation::Make("P1", {"B1"}, {{1}});
  auto index = SignatureIndex::Build(*r, *p);
  ASSERT_TRUE(index.ok());
  auto bu = MakeStrategy(StrategyKind::kBottomUp);
  GoalOracle oracle{index->omega().PredicateFromPairs({{0, 0}})};  // θG1
  auto result = RunInference(*index, *bu, oracle);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_interactions, 0u);
  EXPECT_EQ(result->predicate, index->omega().Full());
  EXPECT_TRUE(index->EquivalentOnInstance(
      result->predicate, index->omega().PredicateFromPairs({{0, 0}})));
}

// --- Error path (Algorithm 1 lines 6-7) -----------------------------------------

/// Presents a scripted list of classes (informative or not).
class ScriptedStrategy : public Strategy {
 public:
  explicit ScriptedStrategy(std::vector<ClassId> script)
      : script_(std::move(script)) {}
  const char* name() const override { return "scripted"; }
  std::optional<ClassId> SelectNext(const InferenceState& state) override {
    while (next_ < script_.size()) {
      ClassId c = script_[next_];
      if (state.state(c) == TupleState::kLabeled) {
        ++next_;
        continue;
      }
      ++next_;
      return c;
    }
    // Fall back to any informative class so the halt CHECK holds.
    auto informative = state.InformativeClasses();
    if (informative.empty()) return std::nullopt;
    return informative.front();
  }

 private:
  std::vector<ClassId> script_;
  size_t next_ = 0;
};

/// Labels from a fixed script.
class ScriptedOracle : public Oracle {
 public:
  explicit ScriptedOracle(std::vector<Label> labels)
      : labels_(std::move(labels)) {}
  Label LabelClass(const SignatureIndex&, ClassId) override {
    JINFER_CHECK(next_ < labels_.size(), "oracle script exhausted");
    return labels_[next_++];
  }

 private:
  std::vector<Label> labels_;
  size_t next_ = 0;
};

TEST(InferenceEngineTest, InconsistentUserLabelsRaiseError) {
  // §3.4 setup: after +(t2,t2') and −(t1,t3'), the tuple (t4,t1') is
  // certain-positive; a user labeling it negative is inconsistent.
  SignatureIndex index = testing::Example21Index();
  ScriptedStrategy strategy({testing::ClassOf(index, 1, 1),
                             testing::ClassOf(index, 0, 2),
                             testing::ClassOf(index, 3, 0)});
  ScriptedOracle oracle(
      {Label::kPositive, Label::kNegative, Label::kNegative});
  auto result = RunInference(index, strategy, oracle);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInconsistentSample());
}

TEST(InferenceEngineTest, RedundantButConsistentLabelsAreAccepted) {
  // Labeling the certain-positive tuple positive is uninformative but legal.
  SignatureIndex index = testing::Example21Index();
  ScriptedStrategy strategy({testing::ClassOf(index, 1, 1),
                             testing::ClassOf(index, 0, 2),
                             testing::ClassOf(index, 3, 0)});
  GoalOracle oracle{testing::Pred(index.omega(), {{0, 0}, {1, 2}})};
  auto result = RunInference(index, strategy, oracle);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

// --- Oracles ---------------------------------------------------------------------

TEST(GoalOracleTest, LabelsFollowSelection) {
  SignatureIndex index = testing::Example21Index();
  JoinPredicate goal = testing::Pred(index.omega(), {{0, 2}});
  GoalOracle oracle{goal};
  for (ClassId c = 0; c < index.num_classes(); ++c) {
    EXPECT_EQ(oracle.LabelClass(index, c),
              index.Selects(goal, c) ? Label::kPositive : Label::kNegative);
  }
}

TEST(LyingOracleTest, ZeroProbabilityIsTruthful) {
  SignatureIndex index = testing::Example21Index();
  JoinPredicate goal = testing::Pred(index.omega(), {{0, 2}});
  GoalOracle truth{goal};
  LyingOracle liar{goal, 0.0, 9};
  for (ClassId c = 0; c < index.num_classes(); ++c) {
    EXPECT_EQ(liar.LabelClass(index, c), truth.LabelClass(index, c));
  }
}

TEST(LyingOracleTest, ProbabilityOneAlwaysFlips) {
  SignatureIndex index = testing::Example21Index();
  JoinPredicate goal = testing::Pred(index.omega(), {{0, 2}});
  GoalOracle truth{goal};
  LyingOracle liar{goal, 1.0, 9};
  for (ClassId c = 0; c < index.num_classes(); ++c) {
    EXPECT_NE(liar.LabelClass(index, c), truth.LabelClass(index, c));
  }
}

TEST(LyingOracleTest, LiesOnInformativeTuplesSilentlyMisleads) {
  // Documented failure mode: informative-only strategies never trip the
  // consistency check, so an always-lying user yields a *wrong but
  // consistent* predicate rather than an error.
  SignatureIndex index = testing::Example21Index();
  JoinPredicate goal = testing::Pred(index.omega(), {{0, 0}, {1, 2}});
  auto bu = MakeStrategy(StrategyKind::kBottomUp);
  LyingOracle liar{goal, 1.0, 3};
  auto result = RunInference(index, *bu, liar);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(index.EquivalentOnInstance(result->predicate, goal));
}

}  // namespace
}  // namespace core
}  // namespace jinfer
