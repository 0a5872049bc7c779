// Protocol chaos suite (DESIGN.md §11.3): the serving front end under an
// adversarial schedule — socket-edge failpoints (accept, read, write,
// frame-decode) plus clients that randomly kill their own connections
// mid-session. The tenants cover both frame routes: BU and RND sessions
// run every frame after the open on the event thread, while an L1S
// session's answers, whose replies carry a searching pick, run on a
// worker. A session's finishing reply ends it on the server. The
// property, at 1 worker and at 4: every transcript that COMPLETES is
// bit-identical to the fault-free in-process baseline. Faults
// may kill a connection (its session aborts, the client retries with a
// fresh session), but a killed neighbor must never perturb another
// tenant's question sequence, labels, or final predicate — and after the
// storm, a graceful drain must end with zero open sessions, each opened
// session ended exactly once.
//
// Like chaos_test.cc, this file never Reset()s the failpoint registry:
// arming is additive over any ambient JINFER_FAILPOINTS schedule, and
// fault-free baselines run under Failpoints::PauseScope.

#include <chrono>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/oracle.h"
#include "core/signature_index.h"
#include "core/strategy.h"
#include "relational/csv.h"
#include "runtime/session.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "testing/paper_fixtures.h"
#include "util/failpoint.h"
#include "workload/experiment.h"

namespace jinfer {
namespace server {
namespace {

using std::chrono::milliseconds;

struct Spec {
  core::StrategyKind kind;
  uint64_t seed;
  core::JoinPredicate goal;
};

/// One completed transcript: the (class, label) sequence plus the outcome.
struct Transcript {
  std::vector<std::pair<uint32_t, bool>> steps;
  core::JoinPredicate predicate;
  uint64_t num_interactions = 0;

  bool operator==(const Transcript& other) const {
    return steps == other.steps && predicate == other.predicate &&
           num_interactions == other.num_interactions;
  }
};

/// The fault-free reference: an in-process Session run under PauseScope.
Transcript Baseline(const core::SignatureIndex& index, const Spec& spec) {
  util::Failpoints::PauseScope paused;
  runtime::Session session(index, core::MakeStrategy(spec.kind, spec.seed));
  core::GoalOracle oracle(spec.goal);
  Transcript out;
  while (auto q = session.NextQuestion()) {
    const core::Label label = oracle.LabelClass(index, *q);
    out.steps.emplace_back(static_cast<uint32_t>(*q),
                           label == core::Label::kPositive);
    JINFER_CHECK(session.Answer(label).ok(), "baseline answer failed");
  }
  out.predicate = session.Result().predicate;
  out.num_interactions = session.num_interactions();
  return out;
}

/// One attempt at driving a session over the wire. Any transport or
/// transient failure aborts the attempt (the caller retries from scratch
/// with a fresh session — determinism makes the retry equivalent).
/// `killer`, when nonnull, hangs up on purpose with probability ~1/5 per
/// step — the random connection kills of the chaos schedule.
util::Result<Transcript> DriveOnce(uint16_t port, const OpenSessionBody& body,
                                   const core::SignatureIndex& index,
                                   const core::JoinPredicate& goal,
                                   std::mt19937* killer) {
  JINFER_ASSIGN_OR_RETURN(Client client, Client::Connect("127.0.0.1", port));
  JINFER_RETURN_NOT_OK(client.OpenSession(body).status());
  core::GoalOracle oracle(goal);
  Transcript out;
  while (true) {
    if (killer != nullptr && (*killer)() % 5 == 0) {
      return util::Status::Unavailable("self-inflicted connection kill");
    }
    JINFER_ASSIGN_OR_RETURN(QuestionBody question, client.NextQuestion());
    if (question.finished) break;
    const core::Label label = oracle.LabelClass(index, question.class_id);
    const bool positive = label == core::Label::kPositive;
    out.steps.emplace_back(question.class_id, positive);
    JINFER_RETURN_NOT_OK(client.Answer(positive).status());
  }
  JINFER_ASSIGN_OR_RETURN(CloseOkBody closed, client.CloseSession());
  out.predicate = PredicateFromWords(closed.predicate_words);
  out.num_interactions = closed.num_interactions;
  return out;
}

/// Retries DriveOnce until a transcript completes. Under the armed
/// schedule every fault is transient by contract, so persistent failure is
/// a bug, not weather — hence the generous but finite attempt bound.
Transcript DriveToCompletion(uint16_t port, const OpenSessionBody& body,
                             const core::SignatureIndex& index,
                             const core::JoinPredicate& goal,
                             std::mt19937* killer) {
  for (int attempt = 0; attempt < 500; ++attempt) {
    auto result = DriveOnce(port, body, index, goal, killer);
    if (result.ok()) return std::move(result).ValueOrDie();
    std::this_thread::sleep_for(milliseconds(1 + attempt % 5));
  }
  ADD_FAILURE() << "no attempt completed under the fault schedule";
  return {};
}

OpenSessionBody BodyFor(const Spec& spec) {
  OpenSessionBody body;
  body.strategy = core::StrategyKindName(spec.kind);
  body.seed = spec.seed;
  body.compress = 1;
  body.r_name = "R";
  body.p_name = "P";
  body.r_csv = rel::WriteRelationCsv(testing::Example21R());
  body.p_csv = rel::WriteRelationCsv(testing::Example21P());
  return body;
}

std::vector<Spec> MakeSpecs(const core::SignatureIndex& index) {
  auto buckets =
      workload::SampleGoalsBySize(index, /*max_per_size=*/1, /*seed=*/5);
  JINFER_CHECK(buckets.ok() && !buckets->empty(), "no goals sampled");
  std::vector<Spec> specs;
  for (size_t i = 0; i < buckets->size() && specs.size() < 4; ++i) {
    for (const core::JoinPredicate& goal : (*buckets)[i].goals) {
      specs.push_back({core::StrategyKind::kBottomUp, 0, goal});
      specs.push_back({core::StrategyKind::kRandom, 40 + i, goal});
      break;
    }
  }
  // Its answers go to a worker with their searching picks: the worker route.
  specs.push_back({core::StrategyKind::kLookahead1, 0, specs.back().goal});
  return specs;
}

class ServerChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Socket-edge faults, additive over any env schedule. Periods are
    // relatively prime so the four streams drift across each other, and
    // coarse enough that short sessions complete within the retry bound.
    ASSERT_TRUE(util::Failpoints::ArmFromSpec(
                    "server.accept=every:5;server.conn.read=every:23;"
                    "server.conn.write=every:29;server.frame.decode=every:31")
                    .ok());
  }
  void TearDown() override {
    util::Failpoints::Disarm("server.accept");
    util::Failpoints::Disarm("server.conn.read");
    util::Failpoints::Disarm("server.conn.write");
    util::Failpoints::Disarm("server.frame.decode");
  }
};

TEST_F(ServerChaosTest, FaultScheduleNeverCorruptsCompletedTranscripts) {
  auto index = core::SignatureIndex::Build(testing::Example21R(),
                                           testing::Example21P());
  ASSERT_TRUE(index.ok());
  const std::vector<Spec> specs = MakeSpecs(*index);
  std::vector<Transcript> baselines;
  baselines.reserve(specs.size());
  for (const Spec& spec : specs) baselines.push_back(Baseline(*index, spec));

  for (int workers : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "workers=" << workers);
    ServerOptions options;
    options.workers = workers;
    Server server(options);
    ASSERT_TRUE(server.Start().ok());

    // Fault-free remote sanity first: with faults paused, the wire adds
    // nothing to the transcript.
    {
      util::Failpoints::PauseScope paused;
      for (size_t i = 0; i < specs.size(); ++i) {
        Transcript remote = DriveToCompletion(
            server.port(), BodyFor(specs[i]), *index, specs[i].goal,
            /*killer=*/nullptr);
        EXPECT_TRUE(remote == baselines[i]) << "spec " << i;
      }
    }

    // The storm: one tenant per spec, concurrently, under live faults and
    // self-inflicted hangups. Every completed transcript must equal its
    // baseline — neighbors dying is invisible.
    std::vector<Transcript> outcomes(specs.size());
    std::vector<std::thread> tenants;
    tenants.reserve(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      tenants.emplace_back([&, i] {
        std::mt19937 killer(static_cast<uint32_t>(1000 + i));
        outcomes[i] =
            DriveToCompletion(server.port(), BodyFor(specs[i]), *index,
                              specs[i].goal, &killer);
      });
    }
    for (auto& t : tenants) t.join();
    for (size_t i = 0; i < specs.size(); ++i) {
      EXPECT_TRUE(outcomes[i] == baselines[i])
          << "tenant " << i << " transcript corrupted by the schedule";
    }
    // The five tenants each connect at least once, so the storm hits
    // server.accept at least five times in a row, and every:5 trips.
    EXPECT_GT(util::Failpoints::Stats("server.accept").trips, 0u);

    // After the storm: drain gracefully. No connection is live, so the
    // drain completes immediately, with nothing leaked.
    {
      util::Failpoints::PauseScope paused;
      server.RequestDrain();
      EXPECT_TRUE(server.Wait().ok());
      StatsOkBody stats = server.Stats();
      EXPECT_EQ(stats.sessions_open, 0u);
      EXPECT_EQ(stats.sessions_opened,
                stats.sessions_completed + stats.sessions_aborted);
      EXPECT_EQ(stats.connections_open, 0u);
    }
  }
}

}  // namespace
}  // namespace server
}  // namespace jinfer
