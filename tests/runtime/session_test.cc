#include "runtime/session.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/inference.h"
#include "core/oracle.h"
#include "runtime/index_cache.h"
#include "testing/paper_fixtures.h"
#include "workload/synthetic.h"

namespace jinfer {
namespace runtime {
namespace {

void ExpectSameResult(const core::InferenceResult& a,
                      const core::InferenceResult& b) {
  EXPECT_EQ(a.predicate, b.predicate);
  EXPECT_EQ(a.num_interactions, b.num_interactions);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].cls, b.trace[i].cls) << "interaction " << i;
    EXPECT_EQ(a.trace[i].label, b.trace[i].label) << "interaction " << i;
    EXPECT_EQ(a.trace[i].informative_before, b.trace[i].informative_before)
        << "interaction " << i;
  }
}

/// Drives a session to completion with an oracle — the canonical step loop.
core::InferenceResult DriveToCompletion(Session& session,
                                        core::Oracle& oracle) {
  while (std::optional<core::ClassId> question = session.NextQuestion()) {
    util::Status status =
        session.Answer(oracle.LabelClass(session.index(), *question));
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  return session.Result();
}

// The step loop must reproduce core::RunInference bit-for-bit: same
// strategy call sequence, same trace, same predicate — for deterministic
// strategies and for RND under an equal seed.
TEST(SessionTest, StepLoopMatchesRunInference) {
  core::SignatureIndex index = testing::Example21Index();
  const core::JoinPredicate goal =
      testing::Pred(index.omega(), {{0, 0}, {1, 1}});

  for (core::StrategyKind kind :
       {core::StrategyKind::kBottomUp, core::StrategyKind::kTopDown,
        core::StrategyKind::kLookahead1, core::StrategyKind::kLookahead2,
        core::StrategyKind::kExpectedGain, core::StrategyKind::kRandom}) {
    for (uint64_t seed : {1u, 7u, 42u}) {
      auto strategy = core::MakeStrategy(kind, seed);
      core::GoalOracle oracle(goal);
      auto reference = core::RunInference(index, *strategy, oracle);
      ASSERT_TRUE(reference.ok());

      Session session(index, core::MakeStrategy(kind, seed));
      core::GoalOracle session_oracle(goal);
      core::InferenceResult stepped =
          DriveToCompletion(session, session_oracle);

      ExpectSameResult(*reference, stepped);
      EXPECT_TRUE(session.Finished());
      EXPECT_TRUE(index.EquivalentOnInstance(stepped.predicate, goal));
    }
  }
}

TEST(SessionTest, StepLoopMatchesRunInferenceOnSynthetic) {
  auto inst = workload::GenerateSynthetic({3, 3, 60, 10}, 555);
  ASSERT_TRUE(inst.ok());
  auto index = core::SignatureIndex::Build(inst->r, inst->p);
  ASSERT_TRUE(index.ok());
  const core::JoinPredicate goal = testing::Pred(index->omega(), {{1, 2}});

  for (core::StrategyKind kind :
       {core::StrategyKind::kTopDown, core::StrategyKind::kLookahead2,
        core::StrategyKind::kRandom}) {
    auto strategy = core::MakeStrategy(kind, 99);
    core::GoalOracle oracle(goal);
    auto reference = core::RunInference(*index, *strategy, oracle);
    ASSERT_TRUE(reference.ok());

    Session session(*index, core::MakeStrategy(kind, 99));
    core::GoalOracle session_oracle(goal);
    ExpectSameResult(*reference, DriveToCompletion(session, session_oracle));
  }
}

// NextQuestion must not advance anything until the pending question is
// answered: RND consumes RNG state in SelectNext, so repeated calls would
// diverge if the strategy were re-consulted.
TEST(SessionTest, NextQuestionIsIdempotentUntilAnswered) {
  core::SignatureIndex index = testing::Example21Index();
  Session session(index,
                  core::MakeStrategy(core::StrategyKind::kRandom, 2024));

  std::optional<core::ClassId> first = session.NextQuestion();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(session.NextQuestion(), first);
  EXPECT_EQ(session.NextQuestion(), first);
  EXPECT_EQ(session.num_interactions(), 0u);

  ASSERT_TRUE(session.Answer(core::Label::kNegative).ok());
  EXPECT_EQ(session.num_interactions(), 1u);
}

TEST(SessionTest, AnswerWithoutPendingQuestionFails) {
  core::SignatureIndex index = testing::Example21Index();
  Session session(index, core::MakeStrategy(core::StrategyKind::kTopDown));
  util::Status status = session.Answer(core::Label::kPositive);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(session.num_interactions(), 0u);
}

// A parked session resumes exactly where it stopped: interleaving the
// steps of two sessions changes nothing about either transcript.
TEST(SessionTest, InterleavedSessionsMatchSoloRuns) {
  core::SignatureIndex index = testing::Example21Index();
  const core::JoinPredicate goal_a = testing::Pred(index.omega(), {{0, 2}});
  const core::JoinPredicate goal_b =
      testing::Pred(index.omega(), {{0, 0}, {1, 1}});

  auto solo = [&](core::StrategyKind kind, uint64_t seed,
                  const core::JoinPredicate& goal) {
    Session session(index, core::MakeStrategy(kind, seed));
    core::GoalOracle oracle(goal);
    return DriveToCompletion(session, oracle);
  };
  core::InferenceResult solo_a =
      solo(core::StrategyKind::kLookahead1, 5, goal_a);
  core::InferenceResult solo_b = solo(core::StrategyKind::kRandom, 6, goal_b);

  Session a(index, core::MakeStrategy(core::StrategyKind::kLookahead1, 5));
  Session b(index, core::MakeStrategy(core::StrategyKind::kRandom, 6));
  core::GoalOracle oracle_a(goal_a);
  core::GoalOracle oracle_b(goal_b);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto& [session, oracle] :
         {std::pair<Session&, core::GoalOracle&>{a, oracle_a},
          std::pair<Session&, core::GoalOracle&>{b, oracle_b}}) {
      std::optional<core::ClassId> question = session.NextQuestion();
      if (!question) continue;
      ASSERT_TRUE(
          session.Answer(oracle.LabelClass(session.index(), *question)).ok());
      progressed = true;
    }
  }

  ExpectSameResult(solo_a, a.Result());
  ExpectSameResult(solo_b, b.Result());
}

// The shared-ownership constructor keeps the index alive after the cache
// and every other handle dropped it.
TEST(SessionTest, SharedIndexOutlivesTheCache) {
  std::optional<Session> session;
  {
    IndexCache cache;
    auto index =
        cache.GetOrBuild(testing::Example21R(), testing::Example21P());
    ASSERT_TRUE(index.ok());
    session.emplace(*index,
                    core::MakeStrategy(core::StrategyKind::kTopDown));
    cache.Clear();
  }  // Cache destroyed; the session's keepalive is the only reference.

  core::GoalOracle oracle(
      testing::Pred(session->index().omega(), {{0, 0}, {1, 1}}));
  core::InferenceResult result = DriveToCompletion(*session, oracle);
  EXPECT_GT(result.num_interactions, 0u);
}

}  // namespace
}  // namespace runtime
}  // namespace jinfer
