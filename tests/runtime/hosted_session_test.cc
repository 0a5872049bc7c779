// Hosted-session lifecycle (DESIGN.md §11.2): the handle model the serving
// front end drives — open / acquire / release / close, the detach/abort
// path for vanished clients, and the max_sessions admission bound. The
// load-bearing regression here is the leak test: an aborted session must
// release its index pin (the shared_ptr handed out by the cache), observed
// directly via weak_ptr expiry.

#include <memory>

#include <gtest/gtest.h>

#include "core/inference.h"
#include "core/oracle.h"
#include "core/signature_index.h"
#include "core/strategy.h"
#include "runtime/session_manager.h"
#include "testing/paper_fixtures.h"
#include "util/status.h"

namespace jinfer {
namespace runtime {
namespace {

std::shared_ptr<const core::SignatureIndex> SharedExample21Index() {
  auto index = core::SignatureIndex::Build(testing::Example21R(),
                                           testing::Example21P());
  JINFER_CHECK(index.ok(), "fixture build failed");
  return std::make_shared<const core::SignatureIndex>(
      std::move(index).ValueOrDie());
}

util::Result<Session> MakeHosted(
    std::shared_ptr<const core::SignatureIndex> index,
    core::StrategyKind kind = core::StrategyKind::kBottomUp,
    uint64_t seed = 0) {
  return Session(std::move(index), core::MakeStrategy(kind, seed));
}

TEST(HostedSessionTest, LifecycleMatchesInProcessRun) {
  auto index = SharedExample21Index();
  const core::JoinPredicate goal =
      testing::Pred(index->omega(), {{0, 0}, {1, 1}});

  // Reference: a plain in-process session.
  Session reference(index, core::MakeStrategy(core::StrategyKind::kBottomUp));
  core::GoalOracle ref_oracle(goal);
  while (auto q = reference.NextQuestion()) {
    ASSERT_TRUE(
        reference.Answer(ref_oracle.LabelClass(reference.index(), *q)).ok());
  }

  SessionManager manager;
  auto id = manager.OpenHosted([&] { return MakeHosted(index); });
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(manager.hosted_open(), 1u);

  // Drive through the lease protocol, one acquire/release per step — the
  // exact cadence the server's workers use.
  core::GoalOracle oracle(goal);
  while (true) {
    auto session = manager.AcquireHosted(*id);
    ASSERT_TRUE(session.ok());
    auto q = (*session)->NextQuestion();
    if (!q.has_value()) {
      manager.ReleaseHosted(*id);
      break;
    }
    ASSERT_TRUE(
        (*session)->Answer(oracle.LabelClass((*session)->index(), *q)).ok());
    manager.ReleaseHosted(*id);
  }

  auto result = manager.CloseHosted(*id);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->predicate, reference.Result().predicate);
  EXPECT_EQ(result->num_interactions, reference.Result().num_interactions);
  EXPECT_EQ(manager.hosted_open(), 0u);
  EXPECT_EQ(manager.stats().hosted_opened, 1u);
  EXPECT_EQ(manager.stats().hosted_closed, 1u);
}

TEST(HostedSessionTest, SecondAcquireIsFailedPrecondition) {
  auto index = SharedExample21Index();
  SessionManager manager;
  auto id = manager.OpenHosted([&] { return MakeHosted(index); });
  ASSERT_TRUE(id.ok());

  ASSERT_TRUE(manager.AcquireHosted(*id).ok());
  auto second = manager.AcquireHosted(*id);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), util::StatusCode::kFailedPrecondition);

  manager.ReleaseHosted(*id);
  EXPECT_TRUE(manager.AcquireHosted(*id).ok());
  manager.ReleaseHosted(*id);
  ASSERT_TRUE(manager.CloseHosted(*id).ok());
}

TEST(HostedSessionTest, AbortWhileLeasedIsDeferredToRelease) {
  auto index = SharedExample21Index();
  SessionManager manager;
  auto id = manager.OpenHosted([&] { return MakeHosted(index); });
  ASSERT_TRUE(id.ok());

  ASSERT_TRUE(manager.AcquireHosted(*id).ok());
  // The connection dies while a worker holds the lease: the abort must not
  // yank the session out from under the worker...
  EXPECT_TRUE(manager.AbortHosted(*id).ok());
  // ...but must win at release time.
  manager.ReleaseHosted(*id);
  auto gone = manager.AcquireHosted(*id);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), util::StatusCode::kNotFound);
  EXPECT_EQ(manager.hosted_open(), 0u);
  EXPECT_EQ(manager.stats().hosted_aborted, 1u);
}

TEST(HostedSessionTest, AbortReleasesIndexPin) {
  // The leak regression for ISSUE satellite 2: a session dropped via the
  // abort path must release the index shared_ptr it pinned. The weak_ptr
  // is the witness — it expires exactly when the last pin drops.
  SessionManager manager;
  std::weak_ptr<const core::SignatureIndex> watch;
  {
    auto index = SharedExample21Index();
    watch = index;
    auto id = manager.OpenHosted(
        [index = std::move(index)]() mutable {
          return MakeHosted(std::move(index));
        });
    ASSERT_TRUE(id.ok());
    EXPECT_FALSE(watch.expired());
    ASSERT_TRUE(manager.AbortHosted(*id).ok());
  }
  EXPECT_TRUE(watch.expired())
      << "aborted hosted session leaked its index pin";
}

TEST(HostedSessionTest, MaxSessionsShedsWithResourceExhausted) {
  auto index = SharedExample21Index();
  SessionManager::Options options;
  options.max_sessions = 1;
  SessionManager manager(options);

  auto first = manager.OpenHosted([&] { return MakeHosted(index); });
  ASSERT_TRUE(first.ok());
  auto second = manager.OpenHosted([&] { return MakeHosted(index); });
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(manager.stats().hosted_shed, 1u);

  // Closing the first frees the slot.
  ASSERT_TRUE(manager.CloseHosted(*first).ok());
  auto third = manager.OpenHosted([&] { return MakeHosted(index); });
  EXPECT_TRUE(third.ok());
  ASSERT_TRUE(manager.AbortHosted(*third).ok());
}

TEST(HostedSessionTest, StatsCountEveryLifecycleEdge) {
  // Open to the bound, shed one, close one, abort one, reopen: each edge
  // lands in exactly one counter.
  auto index = SharedExample21Index();
  SessionManager::Options options;
  options.max_sessions = 2;
  SessionManager manager(options);
  auto make = [&] { return MakeHosted(index); };

  auto a = manager.OpenHosted(make);
  auto b = manager.OpenHosted(make);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(manager.OpenHosted(make).status().IsResourceExhausted());
  ASSERT_TRUE(manager.CloseHosted(*a).ok());
  ASSERT_TRUE(manager.AbortHosted(*b).ok());
  auto c = manager.OpenHosted(make);
  ASSERT_TRUE(c.ok());

  const SessionManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.hosted_opened, 3u);
  EXPECT_EQ(stats.hosted_shed, 1u);
  EXPECT_EQ(stats.hosted_closed, 1u);
  EXPECT_EQ(stats.hosted_aborted, 1u);
  EXPECT_EQ(manager.hosted_open(), 1u);
}

TEST(HostedSessionTest, FactoryFailureDoesNotHoldASlot) {
  SessionManager::Options options;
  options.max_sessions = 1;
  SessionManager manager(options);

  auto failed = manager.OpenHosted(
      []() -> util::Result<Session> {
        return util::Status::IoError("injected factory fault");
      });
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(manager.hosted_open(), 0u);

  auto index = SharedExample21Index();
  auto ok = manager.OpenHosted([&] { return MakeHosted(index); });
  EXPECT_TRUE(ok.ok()) << "failed open left the admission slot reserved";
  if (ok.ok()) ASSERT_TRUE(manager.AbortHosted(*ok).ok());
}

TEST(HostedSessionTest, UnknownIdIsNotFoundEverywhere) {
  SessionManager manager;
  EXPECT_EQ(manager.AcquireHosted(12345).status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(manager.CloseHosted(12345).status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(manager.AbortHosted(12345).code(),
            util::StatusCode::kNotFound);
}

}  // namespace
}  // namespace runtime
}  // namespace jinfer
