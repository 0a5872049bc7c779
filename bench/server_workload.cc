// Standalone serving-front-end workload driver — the CI server-chaos
// client (DESIGN.md §11.3, .github/workflows/ci.yml server-chaos job).
//
// Spawns an in-process Server, then drives N concurrent tenant loops over
// real loopback sockets, each running complete sessions back to back and
// checking every completed transcript bit-for-bit against an in-process
// baseline. Under --chaos the tenants also hang up on purpose mid-session
// (random connection kills), and the process expects to run under an
// ambient JINFER_FAILPOINTS socket-edge schedule — faults may abort
// sessions (the tenant retries with a fresh one), but any divergence in a
// COMPLETED transcript is corruption and exits 1. The run finishes with a
// graceful drain and verifies nothing leaked: zero open connections, zero
// open sessions, and every opened session ended exactly once.
//
//   server_workload [--connections=N] [--sessions=N] [--workers=N] [--chaos]
//
// Exit 0: every transcript matched and the drain came back clean.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/oracle.h"
#include "core/signature_index.h"
#include "core/strategy.h"
#include "relational/csv.h"
#include "runtime/session.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "workload/synthetic.h"

namespace jinfer {
namespace {

struct Config {
  int connections = 4;
  int sessions_per_connection = 8;
  int workers = 4;
  bool chaos = false;
};

/// A completed transcript: (class, label) steps plus the final predicate.
struct Transcript {
  std::vector<std::pair<uint32_t, bool>> steps;
  core::JoinPredicate predicate;
  uint64_t num_interactions = 0;

  bool operator==(const Transcript& other) const {
    return steps == other.steps && predicate == other.predicate &&
           num_interactions == other.num_interactions;
  }
};

struct Tenant {
  server::OpenSessionBody body;
  std::shared_ptr<const core::SignatureIndex> index;
  core::JoinPredicate goal;
  Transcript baseline;
};

/// The tenant catalog: a few small synthetic instances, deterministic
/// strategies, one goal each — sessions short enough to survive a fault
/// schedule, transcripts long enough to catch corruption. The strategies
/// rotate over both frame routes: BU and TD answers run on the event
/// thread, L1S answers (whose replies carry a searching pick) on a worker.
std::vector<Tenant> MakeTenants(size_t n) {
  constexpr core::StrategyKind kRotation[] = {core::StrategyKind::kBottomUp,
                                              core::StrategyKind::kTopDown,
                                              core::StrategyKind::kLookahead1};
  std::vector<Tenant> tenants;
  for (size_t i = 0; i < n; ++i) {
    auto inst = workload::GenerateSynthetic({3, 3, 24, 6}, 7000 + i % 4);
    JINFER_CHECK(inst.ok(), "instance generation");
    const core::StrategyKind kind = kRotation[i % std::size(kRotation)];
    Tenant t;
    t.body.strategy = core::StrategyKindName(kind);
    t.body.compress = 1;
    t.body.r_name = inst->r.schema().relation_name();
    t.body.p_name = inst->p.schema().relation_name();
    t.body.r_csv = rel::WriteRelationCsv(inst->r);
    t.body.p_csv = rel::WriteRelationCsv(inst->p);
    auto index = core::SignatureIndex::Build(inst->r, inst->p);
    JINFER_CHECK(index.ok(), "twin index");
    t.index = std::make_shared<const core::SignatureIndex>(
        std::move(index).ValueOrDie());
    t.goal = core::JoinPredicate::Singleton(i % 2);

    // The fault-free in-process baseline, with any ambient schedule paused.
    util::Failpoints::PauseScope paused;
    runtime::Session session(t.index, core::MakeStrategy(kind));
    core::GoalOracle oracle(t.goal);
    while (auto q = session.NextQuestion()) {
      const core::Label label = oracle.LabelClass(*t.index, *q);
      t.baseline.steps.emplace_back(static_cast<uint32_t>(*q),
                                    label == core::Label::kPositive);
      JINFER_CHECK(session.Answer(label).ok(), "baseline answer");
    }
    t.baseline.predicate = session.Result().predicate;
    t.baseline.num_interactions = session.num_interactions();
    tenants.push_back(std::move(t));
  }
  return tenants;
}

/// One attempt: any transport failure or deliberate hangup aborts it; the
/// caller retries with a fresh session (determinism makes that equivalent).
util::Result<Transcript> DriveOnce(uint16_t port, const Tenant& tenant,
                                   std::mt19937* killer) {
  JINFER_ASSIGN_OR_RETURN(server::Client client,
                          server::Client::Connect("127.0.0.1", port));
  JINFER_RETURN_NOT_OK(client.OpenSession(tenant.body).status());
  core::GoalOracle oracle(tenant.goal);
  Transcript out;
  while (true) {
    if (killer != nullptr && (*killer)() % 7 == 0) {
      return util::Status::Unavailable("self-inflicted connection kill");
    }
    JINFER_ASSIGN_OR_RETURN(server::QuestionBody question,
                            client.NextQuestion());
    if (question.finished) break;
    const core::Label label = oracle.LabelClass(*tenant.index,
                                                question.class_id);
    const bool positive = label == core::Label::kPositive;
    out.steps.emplace_back(question.class_id, positive);
    JINFER_RETURN_NOT_OK(client.Answer(positive).status());
  }
  JINFER_ASSIGN_OR_RETURN(server::CloseOkBody closed, client.CloseSession());
  out.predicate = server::PredicateFromWords(closed.predicate_words);
  out.num_interactions = closed.num_interactions;
  return out;
}

int Run(const Config& config) {
  std::printf("server_workload: %d connection(s) x %d session(s), "
              "%d worker(s), chaos=%s, JINFER_FAILPOINTS=%s\n",
              config.connections, config.sessions_per_connection,
              config.workers, config.chaos ? "on" : "off",
              std::getenv("JINFER_FAILPOINTS") != nullptr
                  ? std::getenv("JINFER_FAILPOINTS")
                  : "(unset)");

  const std::vector<Tenant> tenants =
      MakeTenants(static_cast<size_t>(config.connections));

  server::ServerOptions options;
  options.workers = config.workers;
  server::Server srv(options);
  JINFER_CHECK(srv.Start().ok(), "server start");

  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> retried{0};
  std::atomic<uint64_t> corrupted{0};
  std::vector<std::thread> threads;
  threads.reserve(tenants.size());
  for (size_t i = 0; i < tenants.size(); ++i) {
    threads.emplace_back([&, i] {
      std::mt19937 killer(static_cast<uint32_t>(0xc0ffee + i));
      for (int s = 0; s < config.sessions_per_connection; ++s) {
        bool done = false;
        for (int attempt = 0; attempt < 1000 && !done; ++attempt) {
          auto result = DriveOnce(srv.port(), tenants[i],
                                  config.chaos ? &killer : nullptr);
          if (!result.ok()) {
            retried.fetch_add(1);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1 + attempt % 5));
            continue;
          }
          done = true;
          completed.fetch_add(1);
          if (!(*result == tenants[i].baseline)) {
            corrupted.fetch_add(1);
            std::fprintf(stderr,
                         "tenant %zu session %d: transcript diverged from "
                         "baseline (%zu vs %zu steps)\n",
                         i, s, result->steps.size(),
                         tenants[i].baseline.steps.size());
          }
        }
        JINFER_CHECK(done, "tenant %zu: no attempt completed in 1000 tries",
                     i);
      }
    });
  }
  for (auto& t : threads) t.join();

  // Graceful drain: stop accepting, let the (now idle) connections close,
  // and verify nothing leaked.
  {
    util::Failpoints::PauseScope paused;
    srv.RequestDrain();
    const util::Status drained = srv.Wait();
    JINFER_CHECK(drained.ok(), "drain failed: %s",
                 drained.ToString().c_str());
  }
  server::StatsOkBody stats = srv.Stats();
  std::printf(
      "completed %llu session(s) (%llu retried attempt(s)); server saw "
      "%llu frames, %llu aborted session(s), %llu deadline close(s)\n",
      static_cast<unsigned long long>(completed.load()),
      static_cast<unsigned long long>(retried.load()),
      static_cast<unsigned long long>(stats.frames_read),
      static_cast<unsigned long long>(stats.sessions_aborted),
      static_cast<unsigned long long>(stats.deadline_closes));

  int rc = 0;
  if (corrupted.load() != 0) {
    std::fprintf(stderr, "FAIL: %llu corrupted transcript(s)\n",
                 static_cast<unsigned long long>(corrupted.load()));
    rc = 1;
  }
  if (stats.sessions_open != 0 || stats.connections_open != 0) {
    std::fprintf(stderr,
                 "FAIL: leak after drain (%llu session(s), %llu "
                 "connection(s) still open)\n",
                 static_cast<unsigned long long>(stats.sessions_open),
                 static_cast<unsigned long long>(stats.connections_open));
    rc = 1;
  }
  if (stats.sessions_opened !=
      stats.sessions_completed + stats.sessions_aborted) {
    std::fprintf(stderr,
                 "FAIL: %llu session(s) opened, but %llu closed + %llu "
                 "aborted\n",
                 static_cast<unsigned long long>(stats.sessions_opened),
                 static_cast<unsigned long long>(stats.sessions_completed),
                 static_cast<unsigned long long>(stats.sessions_aborted));
    rc = 1;
  }
  if (rc == 0) {
    std::printf("OK: all transcripts bit-identical to baseline; drain "
                "clean\n");
  }
  return rc;
}

}  // namespace
}  // namespace jinfer

int main(int argc, char** argv) {
  jinfer::Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto intval = [&](const char* prefix, int* out) {
      if (arg.rfind(prefix, 0) == 0) {
        *out = std::atoi(arg.c_str() + std::strlen(prefix));
        return true;
      }
      return false;
    };
    if (intval("--connections=", &config.connections)) continue;
    if (intval("--sessions=", &config.sessions_per_connection)) continue;
    if (intval("--workers=", &config.workers)) continue;
    if (arg == "--chaos") {
      config.chaos = true;
      continue;
    }
    std::fprintf(stderr,
                 "usage: %s [--connections=N] [--sessions=N] [--workers=N] "
                 "[--chaos]\n",
                 argv[0]);
    return 2;
  }
  return jinfer::Run(config);
}
