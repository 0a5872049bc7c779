// Integration tests for the serving front end: real sockets against a real
// Server. The load-bearing property is transcript bit-identity — a session
// driven over the wire must match an in-process Session step for step
// (same questions, same hypothesis words, same final predicate) — plus
// the fused replies (one frame per interaction; a finishing reply ends
// the session), frame routing (which frames run on the event thread, and
// that a slow worker frame stalls no inline tenant) and the lifecycle
// hardening: work-queue shedding, read and write
// deadlines, idle reaping, cross-tenant isolation, malformed-frame
// handling, and graceful drain (DESIGN.md §11.2, §11.3).

#include "server/server.h"

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/oracle.h"
#include "core/signature_index.h"
#include "core/strategy.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "relational/csv.h"
#include "runtime/index_cache.h"
#include "runtime/session.h"
#include "server/client.h"
#include "server/frame.h"
#include "server/protocol.h"
#include "testing/paper_fixtures.h"
#include "util/failpoint.h"
#include "util/socket.h"
#include "workload/synthetic.h"

namespace jinfer {
namespace server {
namespace {

using std::chrono::milliseconds;

struct Instance {
  rel::Relation r, p;
};

Instance Example21() {
  return {testing::Example21R(), testing::Example21P()};
}

OpenSessionBody OpenBodyFor(const Instance& inst,
                            const std::string& strategy, uint64_t seed) {
  OpenSessionBody body;
  body.strategy = strategy;
  body.seed = seed;
  body.compress = 1;
  body.r_name = inst.r.schema().relation_name();
  body.p_name = inst.p.schema().relation_name();
  body.r_csv = rel::WriteRelationCsv(inst.r);
  body.p_csv = rel::WriteRelationCsv(inst.p);
  return body;
}

std::unique_ptr<Server> StartServer(ServerOptions options) {
  auto server = std::make_unique<Server>(std::move(options));
  auto status = server->Start();
  JINFER_CHECK(status.ok(), "server start failed: %s",
               status.ToString().c_str());
  return server;
}

Client ConnectTo(const Server& server) {
  auto client = Client::Connect("127.0.0.1", server.port());
  JINFER_CHECK(client.ok(), "connect failed: %s",
               client.status().ToString().c_str());
  return std::move(client).ValueOrDie();
}

/// Polls `done` for up to 5 s; true once it holds.
template <typename Pred>
bool WaitFor(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(milliseconds(5));
  }
  return true;
}

/// Makes every index build sleep `ms` first, for one scope.
class SlowBuilds {
 public:
  explicit SlowBuilds(int ms) {
    JINFER_CHECK(
        util::Failpoints::Arm("cache.build", "sleep:" + std::to_string(ms))
            .ok(),
        "arming cache.build failed");
  }
  ~SlowBuilds() { util::Failpoints::Disarm("cache.build"); }
};

/// A raw socket to `server`, with a 5 s I/O timeout.
util::Socket RawConnect(const Server& server) {
  auto sock = util::ConnectTcp("127.0.0.1", server.port());
  JINFER_CHECK(sock.ok(), "connect failed: %s",
               sock.status().ToString().c_str());
  JINFER_CHECK(util::SetIoTimeout(*sock, milliseconds(5000)).ok(),
               "socket timeout");
  return std::move(sock).ValueOrDie();
}

/// Reads one whole frame off a raw socket.
util::Result<Frame> ReadFrame(const util::Socket& sock) {
  uint8_t header_bytes[kFrameHeaderBytes];
  JINFER_RETURN_NOT_OK(util::ReadExact(sock, std::span<uint8_t>(header_bytes)));
  JINFER_ASSIGN_OR_RETURN(
      FrameHeader header,
      DecodeFrameHeader(std::span<const uint8_t>(header_bytes)));
  std::vector<uint8_t> payload(header.payload_bytes);
  JINFER_RETURN_NOT_OK(util::ReadExact(sock, std::span<uint8_t>(payload)));
  return DecodeFramePayload(header, payload);
}

/// The frames `types` (with valid bodies) encoded back to back: one write.
std::vector<uint8_t> Pipelined(const std::vector<FrameType>& types,
                               const OpenSessionBody& open) {
  std::vector<uint8_t> wire;
  for (FrameType type : types) {
    const std::vector<uint8_t> frame = EncodeFrame(
        type, type == FrameType::kOpenSession ? Encode(open)
                                              : Encode(MetricsBody{}));
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  return wire;
}

/// Drives a remote session to completion against an oracle over the local
/// twin index, asserting bit-identity with a local Session at every step.
/// `interactions`, when set, receives the session's answered questions.
void ExpectRemoteMatchesLocal(Client& client, const Instance& inst,
                              core::StrategyKind kind, uint64_t seed,
                              const core::JoinPredicate& goal,
                              size_t* interactions = nullptr) {
  auto local_index = core::SignatureIndex::Build(inst.r, inst.p);
  ASSERT_TRUE(local_index.ok());
  runtime::Session local(*local_index, core::MakeStrategy(kind, seed));
  core::GoalOracle local_oracle(goal);
  core::GoalOracle remote_oracle(goal);

  auto open = client.OpenSession(
      OpenBodyFor(inst, core::StrategyKindName(kind), seed));
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  EXPECT_EQ(open->num_classes, local_index->num_classes());

  size_t steps = 0;
  while (true) {
    auto question = client.NextQuestion();
    ASSERT_TRUE(question.ok()) << question.status().ToString();
    auto local_q = local.NextQuestion();
    EXPECT_EQ(question->num_interactions, local.num_interactions())
        << "step " << steps;
    if (question->finished) {
      EXPECT_FALSE(local_q.has_value())
          << "remote finished but local has a question";
      break;
    }
    ASSERT_TRUE(local_q.has_value())
        << "local finished but remote asked a question";
    EXPECT_EQ(question->class_id, *local_q) << "step " << steps;
    // The rows the client renders are the local index's representatives.
    EXPECT_EQ(question->rep_r, local_index->cls(*local_q).rep_r)
        << "step " << steps;
    EXPECT_EQ(question->rep_p, local_index->cls(*local_q).rep_p)
        << "step " << steps;
    EXPECT_EQ(PredicateFromWords(question->predicate_words),
              local.CurrentPredicate())
        << "hypothesis diverged at step " << steps;

    const core::Label label =
        remote_oracle.LabelClass(*local_index, question->class_id);
    ASSERT_TRUE(
        local.Answer(local_oracle.LabelClass(*local_index, *local_q)).ok());
    auto answered = client.Answer(label == core::Label::kPositive);
    ASSERT_TRUE(answered.ok()) << answered.status().ToString();
    EXPECT_EQ(PredicateFromWords(answered->predicate_words),
              local.CurrentPredicate())
        << "post-answer hypothesis diverged at step " << steps;
    ++steps;
  }

  auto closed = client.CloseSession();
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  EXPECT_EQ(closed->num_interactions, local.num_interactions());
  EXPECT_EQ(PredicateFromWords(closed->predicate_words),
            local.Result().predicate);
  if (interactions != nullptr) *interactions = steps;
}

// --- Transcript bit-identity ------------------------------------------------

TEST(ServerTest, RemoteTranscriptsMatchInProcessRuns) {
  for (int workers : {1, 4}) {
    ServerOptions options;
    options.workers = workers;
    auto server = StartServer(options);

    const Instance inst = Example21();
    auto index = core::SignatureIndex::Build(inst.r, inst.p);
    ASSERT_TRUE(index.ok());
    const core::JoinPredicate goal =
        testing::Pred(index->omega(), {{0, 0}, {1, 1}});

    for (core::StrategyKind kind :
         {core::StrategyKind::kBottomUp, core::StrategyKind::kLookahead1,
          core::StrategyKind::kRandom}) {
      for (uint64_t seed : {7u, 42u}) {
        Client client = ConnectTo(*server);
        ExpectRemoteMatchesLocal(client, inst, kind, seed, goal);
      }
    }
    server->RequestDrain();
    EXPECT_TRUE(server->Wait().ok());
    EXPECT_EQ(server->Stats().sessions_open, 0u);
  }
}

TEST(ServerTest, SyntheticInstanceMatchesAcrossConcurrentClients) {
  auto inst_result = workload::GenerateSynthetic({3, 3, 30, 6}, 99);
  ASSERT_TRUE(inst_result.ok());
  const Instance inst{inst_result->r, inst_result->p};
  auto index = core::SignatureIndex::Build(inst.r, inst.p);
  ASSERT_TRUE(index.ok());
  const core::JoinPredicate goal = testing::Pred(index->omega(), {{1, 2}});

  ServerOptions options;
  options.workers = 4;
  auto server = StartServer(options);

  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client = ConnectTo(*server);
      ExpectRemoteMatchesLocal(client, inst,
                               core::StrategyKind::kLookahead1,
                               /*seed=*/uint64_t(i), goal);
    });
  }
  for (auto& t : threads) t.join();

  // All four tenants uploaded the same instance; the fingerprint dedups
  // them onto one build through the tiered cache.
  StatsOkBody stats = server->Stats();
  EXPECT_EQ(stats.cache_builds, 1u);
  EXPECT_EQ(stats.sessions_completed, uint64_t(kClients));
  EXPECT_EQ(stats.sessions_open, 0u);
}

// --- Frame routing -----------------------------------------------------------

TEST(ServerTest, OneFramePerInteractionAndOnlySearchingStepsQueue) {
  // A session of n interactions reads and writes n + 1 frames: the open,
  // whose reply carries the first question, and one answer per
  // interaction, whose reply carries the next. The finishing reply ends
  // the session, so the close sends nothing. Every frame is executed once;
  // only a frame that goes to a worker also waits in the queue. BU, TD and
  // RND pick in one pass, so their answers run on the event thread, and so
  // do their opens once the upload is resident: every session here
  // uploads the same instance, so only the first open queues. Lookahead,
  // EG and OPT answers compute a searching pick and queue like their
  // opens.
  auto server = StartServer(ServerOptions{});
  const Instance inst = Example21();
  auto index = core::SignatureIndex::Build(inst.r, inst.p);
  ASSERT_TRUE(index.ok());
  const core::JoinPredicate goal =
      testing::Pred(index->omega(), {{0, 0}, {1, 1}});
  const obs::Histogram& queue =
      obs::Registry::Global().histogram(obs::kServerFrameQueueNanos);
  const obs::Histogram& execute =
      obs::Registry::Global().histogram(obs::kServerFrameExecuteNanos);

  for (core::StrategyKind kind :
       {core::StrategyKind::kRandom, core::StrategyKind::kBottomUp,
        core::StrategyKind::kTopDown, core::StrategyKind::kLookahead1,
        core::StrategyKind::kLookahead2, core::StrategyKind::kLookahead3,
        core::StrategyKind::kExpectedGain, core::StrategyKind::kOptimal}) {
    SCOPED_TRACE(core::StrategyKindName(kind));
    const StatsOkBody before = server->Stats();
    const uint64_t queued_before = queue.Snapshot().count;
    const uint64_t executed_before = execute.Snapshot().count;
    Client client = ConnectTo(*server);
    size_t interactions = 0;
    ExpectRemoteMatchesLocal(client, inst, kind, /*seed=*/3, goal,
                             &interactions);
    ASSERT_GT(interactions, 0u);
    const StatsOkBody after = server->Stats();
    const uint64_t frames = 1 + interactions;
    EXPECT_EQ(after.frames_read - before.frames_read, frames);
    EXPECT_EQ(after.frames_written - before.frames_written, frames);
    const bool one_pass = kind == core::StrategyKind::kRandom ||
                          kind == core::StrategyKind::kBottomUp ||
                          kind == core::StrategyKind::kTopDown;
    const bool first_open = kind == core::StrategyKind::kRandom;
    EXPECT_EQ(queue.Snapshot().count - queued_before,
              one_pass ? (first_open ? 1 : 0) : 1 + interactions);
    EXPECT_EQ(execute.Snapshot().count - executed_before, frames);
  }
}

TEST(ServerTest, SlowWorkerQuestionDoesNotBlockInlineTenants) {
  // One worker, busy for tens of milliseconds on an OPT open, whose reply
  // carries the OPT pick over 18 classes, while a TD tenant re-asks its
  // pending question with raw kNextQuestion frames (Client::NextQuestion
  // would answer from the question it holds). TD frames run on the event
  // thread, so each re-ask is a full round trip that completes meanwhile.
  // Had they queued, they would wait behind the OPT pick on the one
  // worker; had the OPT pick run inline, the event thread would be
  // blocked. Either way no TD round trip would complete before the OPT
  // reply.
  constexpr int kRoundTrips = 20;
  auto generated = workload::GenerateSynthetic({3, 2, 8, 4}, 20140324);
  ASSERT_TRUE(generated.ok());
  const Instance slow{generated->r, generated->p};
  auto slow_index = core::SignatureIndex::Build(slow.r, slow.p);
  ASSERT_TRUE(slow_index.ok());
  runtime::Session local(*slow_index,
                         core::MakeStrategy(core::StrategyKind::kOptimal));
  const std::optional<core::ClassId> local_pick = local.NextQuestion();
  ASSERT_TRUE(local_pick.has_value());

  ServerOptions options;
  options.workers = 1;
  auto server = StartServer(options);
  Client cheap = ConnectTo(*server);
  auto cheap_open = cheap.OpenSession(OpenBodyFor(Example21(), "TD", 0));
  ASSERT_TRUE(cheap_open.ok()) << cheap_open.status().ToString();
  const std::vector<uint8_t> reask =
      Encode(NextQuestionBody{cheap_open->session_id});
  // The OPT pick takes seconds in a sanitizer build on a small machine.
  Client::Options patient;
  patient.io_timeout = std::chrono::seconds(120);
  auto searching = Client::Connect("127.0.0.1", server->port(), patient);
  ASSERT_TRUE(searching.ok()) << searching.status().ToString();

  const uint64_t read_before = server->Stats().frames_read;
  std::optional<util::Result<OpenOkBody>> slow_open;
  std::atomic<bool> landed{false};
  std::thread opener([&] {
    slow_open.emplace(searching->OpenSession(OpenBodyFor(slow, "OPT", 0)));
    landed.store(true);
  });
  const bool slow_read = WaitFor(
      [&] { return server->Stats().frames_read == read_before + 1; });
  // Stop at kRoundTrips, so the TD tenant stops competing for the CPU.
  int round_trips = 0;
  while (slow_read && !landed.load() && round_trips < kRoundTrips) {
    auto reply = cheap.RoundTrip(FrameType::kNextQuestion, reask);
    if (!reply.ok()) {
      ADD_FAILURE() << "TD re-ask failed: " << reply.status().ToString();
      break;
    }
    // The re-ask is idempotent: it returns the question the open carried.
    auto q = DecodeQuestion(reply->payload);
    if (reply->type != FrameType::kQuestion || !q.ok() ||
        q->class_id != cheap_open->question.class_id) {
      ADD_FAILURE() << "TD re-ask got another reply than its question";
      break;
    }
    if (!landed.load()) ++round_trips;
  }
  opener.join();

  ASSERT_TRUE(slow_read);
  EXPECT_EQ(round_trips, kRoundTrips);
  ASSERT_TRUE(slow_open->ok()) << slow_open->status().ToString();
  ASSERT_EQ((*slow_open)->question.finished, 0u);
  EXPECT_EQ((*slow_open)->question.class_id, *local_pick);
}

// --- Repeat uploads ---------------------------------------------------------

/// Frames that have waited in the work queue, process-wide.
uint64_t QueuedFrames() {
  return obs::Registry::Global()
      .histogram(obs::kServerFrameQueueNanos)
      .Snapshot()
      .count;
}

/// A second instance with Example 2.1's shape.
Instance AltExample() {
  auto r = rel::Relation::Make("R0", {"A1", "A2"},
                               {{7, 8}, {8, 9}, {9, 7}, {7, 9}});
  JINFER_CHECK(r.ok(), "alt fixture");
  return {std::move(r).ValueOrDie(), testing::Example21P()};
}

TEST(ServerTest, RepeatUploadOpensInlineOnlyForOnePassStrategies) {
  // The first open of an upload goes to a worker whatever its strategy:
  // it parses, fingerprints and resolves the instance, and leaves the
  // upload's digest on the index as its alias. A byte-identical repeat of
  // a BU, TD or RND open runs on the event thread from that alias: it
  // never queues, hits the cache once, builds nothing, and its transcript
  // still equals the in-process run. A repeat lookahead, EG or OPT open
  // queues, because its first pick searches.
  const Instance inst = Example21();
  auto index = core::SignatureIndex::Build(inst.r, inst.p);
  ASSERT_TRUE(index.ok());
  const core::JoinPredicate goal =
      testing::Pred(index->omega(), {{0, 0}, {1, 1}});
  for (core::StrategyKind kind :
       {core::StrategyKind::kBottomUp, core::StrategyKind::kTopDown,
        core::StrategyKind::kRandom, core::StrategyKind::kLookahead1,
        core::StrategyKind::kLookahead2, core::StrategyKind::kLookahead3,
        core::StrategyKind::kExpectedGain, core::StrategyKind::kOptimal}) {
    SCOPED_TRACE(core::StrategyKindName(kind));
    const bool one_pass = kind == core::StrategyKind::kRandom ||
                          kind == core::StrategyKind::kBottomUp ||
                          kind == core::StrategyKind::kTopDown;
    auto server = StartServer(ServerOptions{});  // A cold cache each.
    for (bool repeat : {false, true}) {
      SCOPED_TRACE(repeat ? "repeat open" : "first open");
      const StatsOkBody before = server->Stats();
      const uint64_t queued_before = QueuedFrames();
      Client client = ConnectTo(*server);
      size_t interactions = 0;
      ExpectRemoteMatchesLocal(client, inst, kind, /*seed=*/5, goal,
                               &interactions);
      const StatsOkBody after = server->Stats();
      const uint64_t open_queued = repeat && one_pass ? 0 : 1;
      EXPECT_EQ(QueuedFrames() - queued_before,
                open_queued + (one_pass ? 0 : interactions));
      EXPECT_EQ(after.cache_builds - before.cache_builds, repeat ? 0u : 1u);
      EXPECT_EQ(after.cache_hits - before.cache_hits, repeat ? 1u : 0u);
    }
  }
}

TEST(ServerTest, UploadsOverOneReadChunkAlwaysQueue) {
  // The event thread digests only opens of at most one read chunk, so a
  // larger upload goes to a worker every time. It still shares the index
  // its first open resolved, by fingerprint.
  const std::string pad(20000, 'x');
  std::string r_csv = "A1,A2\n";
  std::string p_csv = "B1,B2\n";
  for (int i = 0; i < 4; ++i) {
    r_csv += pad + std::to_string(i % 2) + "," + std::to_string(i) + "\n";
    p_csv += pad + std::to_string(i % 3) + "," + std::to_string(i % 2) + "\n";
  }
  auto r = rel::ReadRelationCsvText(r_csv, "R");
  auto p = rel::ReadRelationCsvText(p_csv, "P");
  ASSERT_TRUE(r.ok() && p.ok());
  const Instance big{std::move(r).ValueOrDie(), std::move(p).ValueOrDie()};
  const OpenSessionBody body = OpenBodyFor(big, "TD", 0);
  ASSERT_GT(Encode(body).size(), kReadChunk);
  auto index = core::SignatureIndex::Build(big.r, big.p);
  ASSERT_TRUE(index.ok());
  const core::JoinPredicate goal = testing::Pred(index->omega(), {{0, 0}});

  auto server = StartServer(ServerOptions{});
  for (bool repeat : {false, true}) {
    SCOPED_TRACE(repeat ? "repeat open" : "first open");
    const StatsOkBody before = server->Stats();
    const uint64_t queued_before = QueuedFrames();
    Client client = ConnectTo(*server);
    ExpectRemoteMatchesLocal(client, big, core::StrategyKind::kTopDown, 0,
                             goal);
    EXPECT_EQ(QueuedFrames() - queued_before, 1u);  // The open; TD answers
                                                    // run inline.
    EXPECT_EQ(server->Stats().cache_builds - before.cache_builds,
              repeat ? 0u : 1u);
  }
}

TEST(ServerTest, RepeatUploadReopensThroughAWorkerOnceEvicted) {
  // An alias leaves the cache with its index. With room for one index, a
  // second instance opened until it is admitted evicts the first; the
  // first upload's repeat then finds no alias and reopens correctly
  // through a worker, which resolves its index again.
  ServerOptions options;
  options.runtime.cache_options.capacity = 1;
  auto server = StartServer(options);
  const Instance first = Example21();
  auto index = core::SignatureIndex::Build(first.r, first.p);
  ASSERT_TRUE(index.ok());
  const core::JoinPredicate goal =
      testing::Pred(index->omega(), {{0, 0}, {1, 1}});

  Client client = ConnectTo(*server);
  ExpectRemoteMatchesLocal(client, first, core::StrategyKind::kTopDown, 0,
                           goal);
  bool admitted = false;
  for (int i = 0; i < 4 && !admitted; ++i) {
    auto open = client.OpenSession(OpenBodyFor(AltExample(), "TD", 0));
    ASSERT_TRUE(open.ok()) << open.status().ToString();
    admitted = open->index_tier ==
               static_cast<uint8_t>(runtime::IndexTier::kMemory);
    ASSERT_TRUE(client.CloseSession().ok());
  }
  ASSERT_TRUE(admitted) << "the second instance never displaced the first";

  const StatsOkBody before = server->Stats();
  const uint64_t queued_before = QueuedFrames();
  ExpectRemoteMatchesLocal(client, first, core::StrategyKind::kTopDown, 0,
                           goal);
  EXPECT_EQ(QueuedFrames() - queued_before, 1u);
  EXPECT_EQ(server->Stats().cache_builds - before.cache_builds, 1u);
}

TEST(ServerTest, RepeatOpenDuringDrainIsRefusedRetryLater) {
  // A draining server refuses every open with a retryable Unavailable; a
  // resident upload is not opened inline past that refusal.
  auto server = StartServer(ServerOptions{});
  const OpenSessionBody body = OpenBodyFor(Example21(), "TD", 0);
  Client client = ConnectTo(*server);
  ASSERT_TRUE(client.OpenSession(body).ok());
  ASSERT_TRUE(client.CloseSession().ok());

  server->RequestDrain();
  // The drain has begun once the listener refuses connections.
  ASSERT_TRUE(WaitFor(
      [&] { return !util::ConnectTcp("127.0.0.1", server->port()).ok(); }));
  auto refused = client.OpenSession(body);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kUnavailable);
  EXPECT_TRUE(RetryLater(refused.status()));

  { Client goner = std::move(client); }
  EXPECT_TRUE(server->Wait().ok());
  EXPECT_EQ(server->Stats().sessions_opened, 1u);
}

// --- Sessions that end inside a reply --------------------------------------

TEST(ServerTest, SessionsEndInsideTheirFinishingReply) {
  auto server = StartServer(ServerOptions{});
  Client client = ConnectTo(*server);

  // §3.3's single-tuple instance: its one class is certain-positive, so
  // the open's reply already says finished, with zero interactions.
  auto r = rel::Relation::Make("R1", {"A1", "A2"}, {{1, 1}});
  auto p = rel::Relation::Make("P1", {"B1"}, {{1}});
  ASSERT_TRUE(r.ok() && p.ok());
  const Instance trivial{*r, *p};
  auto trivial_index = core::SignatureIndex::Build(trivial.r, trivial.p);
  ASSERT_TRUE(trivial_index.ok());
  runtime::Session local(*trivial_index,
                         core::MakeStrategy(core::StrategyKind::kBottomUp));
  ASSERT_FALSE(local.NextQuestion().has_value());

  const StatsOkBody before = server->Stats();
  auto open = client.OpenSession(OpenBodyFor(trivial, "BU", 0));
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  EXPECT_EQ(open->question.finished, 1u);
  EXPECT_EQ(open->question.num_interactions, 0u);
  const StatsOkBody opened = server->Stats();
  EXPECT_EQ(opened.sessions_opened - before.sessions_opened, 1u);
  EXPECT_EQ(opened.sessions_completed - before.sessions_completed, 1u);
  EXPECT_EQ(opened.sessions_open, 0u);

  // The result comes from the finished question: no close frame.
  auto closed = client.CloseSession();
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  EXPECT_EQ(closed->session_id, open->session_id);
  EXPECT_EQ(closed->num_interactions, 0u);
  EXPECT_EQ(PredicateFromWords(closed->predicate_words),
            local.CurrentPredicate());
  EXPECT_EQ(server->Stats().frames_read - before.frames_read, 1u);

  // The connection holds no session, so it may open another.
  auto reopened = client.OpenSession(OpenBodyFor(trivial, "BU", 0));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->question.finished, 1u);
  ASSERT_TRUE(client.CloseSession().ok());

  // A session finished by its last answer ended on the server too. After
  // it, Answer fails locally — the server would take a frame for an ended
  // session as a protocol violation — and the connection stays usable.
  const Instance inst = Example21();
  auto index = core::SignatureIndex::Build(inst.r, inst.p);
  ASSERT_TRUE(index.ok());
  core::GoalOracle oracle(testing::Pred(index->omega(), {{0, 0}, {1, 1}}));
  ASSERT_TRUE(client.OpenSession(OpenBodyFor(inst, "TD", 0)).ok());
  while (true) {
    auto q = client.NextQuestion();
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    if (q->finished) break;
    auto answered = client.Answer(oracle.LabelClass(*index, q->class_id) ==
                                  core::Label::kPositive);
    ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  }
  const StatsOkBody finished = server->Stats();
  EXPECT_EQ(finished.sessions_completed - before.sessions_completed, 3u);
  EXPECT_EQ(finished.sessions_open, 0u);
  auto late = client.Answer(true);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(server->Stats().frames_read, finished.frames_read);
  auto metrics = client.ServerMetrics();
  EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_TRUE(client.CloseSession().ok());
  EXPECT_EQ(server->Stats().protocol_errors, 0u);
}

// --- Load shedding ----------------------------------------------------------

TEST(ServerTest, FailedOpenFreesItsAdmissionSlot) {
  auto server = StartServer(ServerOptions{});
  const Instance inst = Example21();

  Client client = ConnectTo(*server);
  OpenSessionBody unparsable = OpenBodyFor(inst, "BU", 0);
  unparsable.r_csv.clear();
  auto failed = client.OpenSession(unparsable);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), util::StatusCode::kParseError);

  auto opened = client.OpenSession(OpenBodyFor(inst, "BU", 0));
  EXPECT_TRUE(opened.ok()) << "failed open kept the connection's session: "
                           << opened.status().ToString();
}

TEST(ServerTest, StatsCountEveryLifecycleEdge) {
  // Open two, close one, drop one by disconnecting, open a third: each
  // edge lands in exactly one counter.
  auto server = StartServer(ServerOptions{});
  const OpenSessionBody body = OpenBodyFor(Example21(), "BU", 0);

  Client a = ConnectTo(*server);
  std::optional<Client> b(ConnectTo(*server));
  Client c = ConnectTo(*server);
  ASSERT_TRUE(a.OpenSession(body).ok());
  ASSERT_TRUE(b->OpenSession(body).ok());
  ASSERT_TRUE(a.CloseSession().ok());
  b.reset();  // Hangs up with its session open.
  ASSERT_TRUE(WaitFor([&] { return server->Stats().sessions_aborted == 1; }));
  ASSERT_TRUE(c.OpenSession(body).ok());

  const StatsOkBody stats = server->Stats();
  EXPECT_EQ(stats.sessions_opened, 3u);
  EXPECT_EQ(stats.sessions_completed, 1u);
  EXPECT_EQ(stats.sessions_aborted, 1u);
  EXPECT_EQ(stats.sessions_open, 1u);
}

TEST(ServerTest, FullWorkQueueShedsWithoutClosing) {
  ServerOptions options;
  options.max_pending_work = 0;  // Everything sheds: the pathological floor.
  auto server = StartServer(options);

  Client client = ConnectTo(*server);
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto metrics = client.ServerMetrics();
    ASSERT_FALSE(metrics.ok());
    EXPECT_EQ(metrics.status().code(), util::StatusCode::kResourceExhausted);
    EXPECT_TRUE(RetryLater(metrics.status()));
    // The connection survives each shed — the next attempt reuses it.
  }
}

TEST(ServerTest, ShedFrameCarriesRetryLaterAndNotWillClose) {
  // The flags as the server writes them: a shed is a refusal, so its error
  // frame carries RETRY_LATER, and no WILL_CLOSE, because the connection
  // stays open.
  ServerOptions options;
  options.max_pending_work = 0;
  auto server = StartServer(options);
  util::Socket sock = RawConnect(*server);
  ASSERT_TRUE(
      util::WriteAll(sock, Pipelined({FrameType::kMetrics}, {})).ok());

  auto reply = ReadFrame(sock);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_STREQ(FrameTypeName(reply->type), FrameTypeName(FrameType::kError));
  auto err = DecodeError(reply->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code,
            static_cast<uint32_t>(util::StatusCode::kResourceExhausted));
  EXPECT_EQ(err->flags, kErrorFlagRetryLater);
}

/// The process-wide level of jinfer_server_pending_work: every live
/// server's cell.
int64_t PendingWorkGauge() {
  for (const obs::MetricSnapshot& m : obs::Registry::Global().Snapshot()) {
    if (m.name == obs::kServerPendingWork) return m.gauge;
  }
  return -1;
}

TEST(ServerTest, PendingWorkGaugeFollowsTheQueue) {
  // One worker sleeps in the first open's build while the open of another
  // upload waits in the queue: the gauge reads 1. The build outlasts the
  // event loop's 500 ms heartbeat, so a gauge refreshed once per loop
  // round sees the queued frame too. Once both opens are answered the
  // queue is empty and the gauge reads 0.
  SlowBuilds slow(1500);
  ServerOptions options;
  options.workers = 1;
  auto server = StartServer(options);

  Client first = ConnectTo(*server);
  Client second = ConnectTo(*server);
  std::optional<util::Result<OpenOkBody>> first_open;
  std::optional<util::Result<OpenOkBody>> second_open;
  std::thread first_opener([&] {
    first_open.emplace(first.OpenSession(OpenBodyFor(Example21(), "BU", 0)));
  });
  ASSERT_TRUE(WaitFor([&] { return server->Stats().frames_read == 1; }));
  std::thread second_opener([&] {
    second_open.emplace(
        second.OpenSession(OpenBodyFor(AltExample(), "BU", 0)));
  });
  EXPECT_TRUE(WaitFor([] { return PendingWorkGauge() == 1; }));
  first_opener.join();
  second_opener.join();

  ASSERT_TRUE(first_open->ok()) << first_open->status().ToString();
  ASSERT_TRUE(second_open->ok()) << second_open->status().ToString();
  EXPECT_TRUE(WaitFor([] { return PendingWorkGauge() == 0; }));
}

// --- Pipelined frames -------------------------------------------------------

TEST(ServerTest, PipelinedRequestsAreServedInOrder) {
  // Frames sent in one write are read in one go; poll never reports the
  // buffered ones again, so each completion must dispatch the next.
  ServerOptions options;
  options.limits.read_deadline = milliseconds(1000);
  auto server = StartServer(options);
  util::Socket sock = RawConnect(*server);
  ASSERT_TRUE(util::WriteAll(sock, Pipelined({FrameType::kMetrics,
                                              FrameType::kOpenSession,
                                              FrameType::kMetrics},
                                             OpenBodyFor(Example21(), "BU",
                                                         0)))
                  .ok());
  for (FrameType want : {FrameType::kMetricsOk, FrameType::kOpenOk,
                         FrameType::kMetricsOk}) {
    auto reply = ReadFrame(sock);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_STREQ(FrameTypeName(reply->type), FrameTypeName(want));
  }

  // A shed frame dispatches nothing, so no completion will serve the frame
  // behind it: the shed must.
  options.max_pending_work = 0;
  auto shedding = StartServer(options);
  util::Socket shed_sock = RawConnect(*shedding);
  ASSERT_TRUE(util::WriteAll(shed_sock, Pipelined({FrameType::kMetrics,
                                                   FrameType::kMetrics},
                                                  OpenSessionBody{}))
                  .ok());
  for (int i = 0; i < 2; ++i) {
    auto reply = ReadFrame(shed_sock);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_STREQ(FrameTypeName(reply->type), FrameTypeName(FrameType::kError));
    auto err = DecodeError(reply->payload);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err->code,
              static_cast<uint32_t>(util::StatusCode::kResourceExhausted))
        << "shed reply " << i << ": " << err->message;
  }
}

TEST(ServerTest, PipelinedFrameBehindASlowOpenIsNotTimedOut) {
  // The read deadline times the client, never the server: half a frame
  // waiting behind a 500 ms open must not trip a 200 ms read deadline,
  // and once the open is answered the client gets a fresh 200 ms.
  SlowBuilds slow(500);
  ServerOptions options;
  options.limits.read_deadline = milliseconds(200);
  auto server = StartServer(options);
  util::Socket sock = RawConnect(*server);
  std::vector<uint8_t> wire =
      Pipelined({FrameType::kOpenSession}, OpenBodyFor(Example21(), "BU", 0));
  const std::vector<uint8_t> next = Pipelined({FrameType::kMetrics}, {});
  const size_t half = kFrameHeaderBytes / 2;
  wire.insert(wire.end(), next.begin(), next.begin() + half);
  ASSERT_TRUE(util::WriteAll(sock, wire).ok());

  auto opened = ReadFrame(sock);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_STREQ(FrameTypeName(opened->type), FrameTypeName(FrameType::kOpenOk));
  std::this_thread::sleep_for(milliseconds(20));
  ASSERT_TRUE(util::WriteAll(sock, std::span<const uint8_t>(next).subspan(half))
                  .ok());
  auto metrics = ReadFrame(sock);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_STREQ(FrameTypeName(metrics->type),
               FrameTypeName(FrameType::kMetricsOk));
  EXPECT_EQ(server->Stats().deadline_closes, 0u);
}

// --- Abandoned sessions -----------------------------------------------------

TEST(ServerTest, IdleConnectionsAreReapedAndSessionsAborted) {
  ServerOptions options;
  options.limits.idle_timeout = milliseconds(150);
  auto server = StartServer(options);
  const Instance inst = Example21();

  Client client = ConnectTo(*server);
  ASSERT_TRUE(client.OpenSession(OpenBodyFor(inst, "BU", 0)).ok());
  ASSERT_TRUE(client.NextQuestion().ok());

  // The client wanders off. The idle timeout must close the connection and
  // abort the session it owns, releasing its cache pin.
  EXPECT_TRUE(WaitFor([&] { return server->Stats().sessions_open == 0; }));

  StatsOkBody stats = server->Stats();
  EXPECT_EQ(stats.sessions_aborted, 1u);
  EXPECT_EQ(stats.connections_open, 0u);
  EXPECT_GE(stats.deadline_closes, 1u);

  // Client-side, the socket is dead: the next round trip fails. (The held
  // question is still readable; an answer goes to the wire.)
  EXPECT_FALSE(client.Answer(true).ok());
}

// --- Read and write deadlines -----------------------------------------------

TEST(ServerTest, ReadDeadlineClosesAHalfSentFrame) {
  // Half a frame header, then silence: the read deadline fires, and the
  // client hears why before the close.
  ServerOptions options;
  options.limits.read_deadline = milliseconds(100);
  auto server = StartServer(options);
  util::Socket sock = RawConnect(*server);
  const std::vector<uint8_t> frame = Pipelined({FrameType::kMetrics}, {});
  ASSERT_TRUE(util::WriteAll(sock, std::span<const uint8_t>(frame).first(
                                       kFrameHeaderBytes / 2))
                  .ok());

  auto reply = ReadFrame(sock);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_STREQ(FrameTypeName(reply->type), FrameTypeName(FrameType::kError));
  auto err = DecodeError(reply->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code,
            static_cast<uint32_t>(util::StatusCode::kDeadlineExceeded));
  EXPECT_EQ(err->message, "read deadline exceeded");
  EXPECT_TRUE(err->flags & kErrorFlagWillClose)
      << "error should announce the close";
  EXPECT_FALSE(err->flags & kErrorFlagRetryLater)
      << "a deadline close is not a refusal to retry";

  // Then EOF (kIoError), not a read timeout (kUnavailable).
  uint8_t byte;
  const util::Status eof = util::ReadExact(sock, std::span<uint8_t>(&byte, 1));
  EXPECT_EQ(eof.code(), util::StatusCode::kIoError) << eof.ToString();
  EXPECT_EQ(server->Stats().deadline_closes, 1u);
  EXPECT_TRUE(WaitFor([&] { return server->Stats().connections_open == 0; }));
}

TEST(ServerTest, WriteDeadlineClosesAClientThatNeverReads) {
  // Pipelined requests whose replies are never read fill both kernel
  // socket buffers, and the rest of the replies pend in the connection's
  // own buffer. The buffer cap is raised out of reach, so the write
  // deadline, not the cap, closes the connection.
  ServerOptions options;
  options.limits.write_deadline = milliseconds(200);
  options.limits.write_buffer_cap = size_t{256} << 20;
  auto server = StartServer(options);
  util::Socket sock = RawConnect(*server);

  // One read reply prices the rest: 16 MiB of replies is several times
  // what the two kernel buffers hold.
  ASSERT_TRUE(util::WriteAll(sock, Pipelined({FrameType::kMetrics}, {})).ok());
  auto first = ReadFrame(sock);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const size_t requests = (size_t{16} << 20) / first->payload.size() + 1;
  ASSERT_TRUE(util::WriteAll(sock, Pipelined(std::vector<FrameType>(
                                                 requests, FrameType::kMetrics),
                                             {}))
                  .ok());

  EXPECT_TRUE(WaitFor([&] { return server->Stats().deadline_closes == 1; }));
  EXPECT_TRUE(WaitFor([&] { return server->Stats().connections_open == 0; }));
  EXPECT_EQ(server->Stats().deadline_closes, 1u);
}

// --- Protocol errors over a raw socket --------------------------------------

/// Sends raw bytes, then reads one response frame (expecting kError) and
/// asserts the connection is closed afterwards (EOF on the next read).
void ExpectErrorThenClose(const Server& server,
                          const std::vector<uint8_t>& wire,
                          util::StatusCode want_code) {
  auto sock = util::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(util::SetIoTimeout(*sock, milliseconds(5000)).ok());
  ASSERT_TRUE(util::WriteAll(*sock, wire).ok());

  uint8_t header_bytes[kFrameHeaderBytes];
  ASSERT_TRUE(
      util::ReadExact(*sock, std::span<uint8_t>(header_bytes)).ok());
  auto header = DecodeFrameHeader(std::span<const uint8_t>(header_bytes));
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->type, static_cast<uint8_t>(FrameType::kError));
  std::vector<uint8_t> payload(header->payload_bytes);
  ASSERT_TRUE(util::ReadExact(*sock, std::span<uint8_t>(payload)).ok());
  auto frame = DecodeFramePayload(*header, payload);
  ASSERT_TRUE(frame.ok());
  auto err = DecodeError(frame->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, static_cast<uint32_t>(want_code));
  EXPECT_TRUE(err->flags & kErrorFlagWillClose)
      << "error should announce the close";

  // The server promised to close: the next read is EOF, not a hang.
  uint8_t byte;
  auto eof = util::ReadExact(*sock, std::span<uint8_t>(&byte, 1));
  EXPECT_FALSE(eof.ok());
}

TEST(ServerTest, MalformedFramesGetTypedErrorThenClose) {
  auto server = StartServer(ServerOptions{});

  // Bad magic.
  {
    auto wire = EncodeFrame(FrameType::kMetrics, {});
    uint32_t magic = 0x12345678;
    std::memcpy(wire.data(), &magic, sizeof(magic));
    ExpectErrorThenClose(*server, wire, util::StatusCode::kParseError);
  }
  // Oversized length prefix (hostile 4 GiB claim; only the header is sent).
  {
    auto wire = EncodeFrame(FrameType::kOpenSession, {});
    FrameHeader header;
    std::memcpy(&header, wire.data(), sizeof(header));
    header.payload_bytes = 0xffffff00u;
    std::memcpy(wire.data(), &header, sizeof(header));
    wire.resize(kFrameHeaderBytes);
    ExpectErrorThenClose(*server, wire, util::StatusCode::kParseError);
  }
  // Checksum mismatch.
  {
    const std::vector<uint8_t> payload = Encode(NextQuestionBody{1});
    auto wire = EncodeFrame(FrameType::kNextQuestion, payload);
    wire.back() ^= 0x80;
    ExpectErrorThenClose(*server, wire, util::StatusCode::kParseError);
  }
  // A response-type frame from a client is never legal.
  {
    auto wire = EncodeFrame(FrameType::kQuestion, Encode(QuestionBody{}));
    ExpectErrorThenClose(*server, wire, util::StatusCode::kParseError);
  }
  // Well-framed garbage: the frame parses, the body does not.
  {
    const std::vector<uint8_t> junk = {1, 2, 3};
    auto wire = EncodeFrame(FrameType::kAnswer, junk);
    ExpectErrorThenClose(*server, wire, util::StatusCode::kParseError);
  }
  // v1 and v2 headers: the version bumps have no fallback path.
  for (uint8_t version : {uint8_t{1}, uint8_t{2}}) {
    auto wire = EncodeFrame(FrameType::kMetrics, {});
    FrameHeader header;
    std::memcpy(&header, wire.data(), sizeof(header));
    header.version = version;
    std::memcpy(wire.data(), &header, sizeof(header));
    ExpectErrorThenClose(*server, wire, util::StatusCode::kParseError);
  }
  // v1's stats request and reply, and v2's answer-ok, are unassigned in v3.
  for (uint8_t type : {uint8_t{0x05}, uint8_t{0x45}, uint8_t{0x43}}) {
    auto wire = EncodeFrame(static_cast<FrameType>(type), {});
    ExpectErrorThenClose(*server, wire, util::StatusCode::kParseError);
  }

  StatsOkBody stats = server->Stats();
  EXPECT_GE(stats.protocol_errors, 10u);
}

TEST(ServerTest, MidFrameEofIsAProtocolErrorNotAHang) {
  auto server = StartServer(ServerOptions{});
  auto sock = util::ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(util::SetIoTimeout(*sock, milliseconds(5000)).ok());

  // A header promising 100 payload bytes, then half-close: the server sees
  // EOF mid-frame and must fail the connection cleanly.
  auto wire = EncodeFrame(FrameType::kAnswer,
                          std::vector<uint8_t>(100, 0xaa));
  wire.resize(kFrameHeaderBytes + 10);
  ASSERT_TRUE(util::WriteAll(*sock, wire).ok());
  ASSERT_EQ(::shutdown(sock->fd(), SHUT_WR), 0);

  // The server answers with a typed error (it can still write — only our
  // write side is closed), then closes.
  uint8_t header_bytes[kFrameHeaderBytes];
  ASSERT_TRUE(
      util::ReadExact(*sock, std::span<uint8_t>(header_bytes)).ok());
  auto header = DecodeFrameHeader(std::span<const uint8_t>(header_bytes));
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->type, static_cast<uint8_t>(FrameType::kError));
}

// --- Cross-tenant isolation -------------------------------------------------

TEST(ServerTest, SessionOwnershipViolationClosesViolatorOnly) {
  auto server = StartServer(ServerOptions{});
  const Instance inst = Example21();
  auto index = core::SignatureIndex::Build(inst.r, inst.p);
  ASSERT_TRUE(index.ok());
  const core::JoinPredicate goal =
      testing::Pred(index->omega(), {{0, 0}, {1, 1}});

  Client victim = ConnectTo(*server);
  auto victim_open = victim.OpenSession(OpenBodyFor(inst, "BU", 0));
  ASSERT_TRUE(victim_open.ok());

  Client attacker = ConnectTo(*server);
  ASSERT_TRUE(attacker.OpenSession(OpenBodyFor(inst, "TD", 0)).ok());

  // The attacker names the victim's session in a NextQuestion frame.
  NextQuestionBody forged;
  forged.session_id = victim_open->session_id;
  auto stolen = attacker.RoundTrip(FrameType::kNextQuestion, Encode(forged));
  ASSERT_FALSE(stolen.ok());
  EXPECT_EQ(stolen.status().code(),
            util::StatusCode::kFailedPrecondition);
  // The violator's connection is closed...
  EXPECT_FALSE(attacker.Answer(true).ok());

  // ...and the victim's transcript is untouched: it still completes
  // bit-identically to a fresh in-process run.
  runtime::Session local(*index,
                         core::MakeStrategy(core::StrategyKind::kBottomUp));
  core::GoalOracle oracle(goal);
  while (true) {
    auto q = victim.NextQuestion();
    ASSERT_TRUE(q.ok());
    auto lq = local.NextQuestion();
    if (q->finished) {
      EXPECT_FALSE(lq.has_value());
      break;
    }
    ASSERT_TRUE(lq.has_value());
    EXPECT_EQ(q->class_id, *lq);
    const core::Label label = oracle.LabelClass(*index, *lq);
    ASSERT_TRUE(local.Answer(label).ok());
    ASSERT_TRUE(victim.Answer(label == core::Label::kPositive).ok());
  }
  auto closed = victim.CloseSession();
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(PredicateFromWords(closed->predicate_words),
            local.Result().predicate);
}

// --- Graceful drain ---------------------------------------------------------

TEST(ServerTest, GracefulDrainFinishesInFlightSessions) {
  auto server = StartServer(ServerOptions{});
  const Instance inst = Example21();
  auto index = core::SignatureIndex::Build(inst.r, inst.p);
  ASSERT_TRUE(index.ok());
  const core::JoinPredicate goal =
      testing::Pred(index->omega(), {{0, 0}, {1, 1}});

  Client client = ConnectTo(*server);
  ASSERT_TRUE(client.OpenSession(OpenBodyFor(inst, "BU", 0)).ok());
  ASSERT_TRUE(client.NextQuestion().ok());

  server->RequestDrain();

  // In-flight work continues to completion during the drain...
  core::GoalOracle oracle(goal);
  while (true) {
    auto q = client.NextQuestion();
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    if (q->finished) break;
    ASSERT_TRUE(
        client
            .Answer(oracle.LabelClass(*index, q->class_id) ==
                    core::Label::kPositive)
            .ok());
  }
  ASSERT_TRUE(client.CloseSession().ok());

  // ...while a draining server refuses new sessions on a surviving
  // connection with a retryable refusal, not a slam.
  auto refused = client.OpenSession(OpenBodyFor(inst, "BU", 0));
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(RetryLater(refused.status()));

  // Dropping the last connection lets the drain complete with OK.
  { Client goner = std::move(client); }
  EXPECT_TRUE(server->Wait().ok());

  StatsOkBody stats = server->Stats();
  EXPECT_EQ(stats.sessions_completed, 1u);
  EXPECT_EQ(stats.sessions_open, 0u);
  EXPECT_EQ(stats.connections_open, 0u);
}

TEST(ServerTest, DrainDeadlineForcesStragglersOut) {
  ServerOptions options;
  options.drain_deadline = milliseconds(200);
  auto server = StartServer(options);

  // A client that connects and then stalls forever.
  auto sock = util::ConnectTcp("127.0.0.1", server->port());
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(util::SetIoTimeout(*sock, milliseconds(5000)).ok());

  // Let the server accept it before draining.
  std::this_thread::sleep_for(milliseconds(50));
  server->RequestDrain();

  // The drain deadline evicts the straggler with a goodbye frame...
  uint8_t header_bytes[kFrameHeaderBytes];
  ASSERT_TRUE(
      util::ReadExact(*sock, std::span<uint8_t>(header_bytes)).ok());
  auto header = DecodeFrameHeader(std::span<const uint8_t>(header_bytes));
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->type, static_cast<uint8_t>(FrameType::kError));

  // ...and Wait still returns OK: a deadline-bounded drain is a success.
  EXPECT_TRUE(server->Wait().ok());
}

TEST(ServerTest, StopWithOpenInFlightLeavesNoSession) {
  // The open finishes building after the event loop stopped, so its
  // completion is never applied: Wait() must end the session it holds.
  SlowBuilds slow(300);
  auto server = StartServer(ServerOptions{});
  util::Socket sock = RawConnect(*server);
  ASSERT_TRUE(util::WriteAll(sock, Pipelined({FrameType::kOpenSession},
                                             OpenBodyFor(Example21(), "BU",
                                                         0)))
                  .ok());
  ASSERT_TRUE(WaitFor([&] { return server->Stats().frames_read == 1; }));
  server->RequestStop();
  EXPECT_TRUE(server->Wait().ok());

  const StatsOkBody stats = server->Stats();
  EXPECT_EQ(stats.sessions_opened, 1u);
  EXPECT_EQ(stats.sessions_aborted, 1u);
  EXPECT_EQ(stats.sessions_open, 0u);
}

// --- Metrics ----------------------------------------------------------------

/// The value of the unlabelled sample `name` in a Prometheus exposition.
uint64_t SampleOf(const std::string& text, const char* name) {
  const std::string key = std::string("\n") + name + " ";
  const size_t at = text.find(key);
  JINFER_CHECK(at != std::string::npos, "no sample %s", name);
  return std::strtoull(text.c_str() + at + key.size(), nullptr, 10);
}

TEST(ServerTest, MetricsFrameReportsCounterDeltas) {
  // The registry series are process-wide (earlier servers in this binary
  // retired their totals into them), so compare two scrapes.
  auto server = StartServer(ServerOptions{});
  Client client = ConnectTo(*server);
  auto before = client.ServerMetrics();
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  Client second = ConnectTo(*server);
  auto after = second.ServerMetrics();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  auto delta = [&](const char* name) {
    return SampleOf(after->text, name) - SampleOf(before->text, name);
  };
  EXPECT_EQ(delta(obs::kServerConnectionsAcceptedTotal), 1u);
  EXPECT_EQ(delta(obs::kServerFramesReadTotal), 1u);
  EXPECT_EQ(delta(obs::kServerFramesWrittenTotal), 1u);
  EXPECT_EQ(delta(obs::kServerProtocolErrorsTotal), 0u);
}

TEST(ServerTest, HistogramsTravelOnlyOnTheMetricsFrame) {
  auto server = StartServer(ServerOptions{});
  Client client = ConnectTo(*server);
  const Instance inst = Example21();

  // Drive one frame-execute cycle so the server-side latency histograms
  // have something to report.
  auto open = client.OpenSession(OpenBodyFor(inst, "TD", 1));
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  auto question = client.NextQuestion();
  ASSERT_TRUE(question.ok()) << question.status().ToString();

  // The execute-latency histogram arrives in full on kMetrics.
  auto metrics = client.ServerMetrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(
      metrics->text.find("# TYPE jinfer_server_frame_execute_nanos histogram"),
      std::string::npos);
  EXPECT_NE(metrics->text.find("jinfer_server_frame_execute_nanos_count"),
            std::string::npos);
  EXPECT_TRUE(client.CloseSession().ok());
}

TEST(ServerTest, MetricsFrameExposesPrometheusTextWhileSessionsRun) {
  auto server = StartServer(ServerOptions{});
  Client client = ConnectTo(*server);
  const Instance inst = Example21();

  auto open = client.OpenSession(OpenBodyFor(inst, "TD", 7));
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  auto question = client.NextQuestion();
  ASSERT_TRUE(question.ok()) << question.status().ToString();

  // kMetrics mid-session: the full Prometheus text rides back over the
  // same connection without disturbing the open session.
  auto metrics = client.ServerMetrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->text.find("# TYPE"), std::string::npos);
  EXPECT_NE(metrics->text.find("jinfer_server_frames_read_total"),
            std::string::npos);
  EXPECT_NE(metrics->text.find("jinfer_server_frame_execute_nanos"),
            std::string::npos);
  EXPECT_NE(metrics->text.find("jinfer_server_sessions_open"),
            std::string::npos);

  // The session is still live: step it on the server after the scrape (a
  // first label is never inconsistent).
  auto next = client.Answer(true);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_TRUE(client.CloseSession().ok());
}

}  // namespace
}  // namespace server
}  // namespace jinfer
