// Interactive CLI: infer a join over two CSV files by answering Yes/No on
// your own terminal — the actual user-in-the-loop scenario of the paper.
//
// Usage:
//   ./build/examples/interactive_cli [--store-dir=DIR] [--deadline-ms=N]
//                                    [--metrics-dump] R.csv P.csv [strategy]
//   ./build/examples/interactive_cli [--store-dir=DIR]   (built-in demo)
//   ./build/examples/interactive_cli --serve=HOST:PORT [--store-dir=DIR]
//   ./build/examples/interactive_cli --connect=HOST:PORT [--deadline-ms=N]
//                                    [--metrics-dump] [R.csv P.csv [strategy]]
//
// --metrics-dump prints the Prometheus text exposition of the process's
// metric registry after the session (DESIGN.md §13). In --connect mode the
// dump is fetched from the *server* over a kMetrics frame instead — live
// histograms from the serving process, while other sessions keep running.
//
// One binary demos both ends of the wire (DESIGN.md §11): --serve runs the
// fault-tolerant serving front end (SIGTERM or Ctrl-C drains gracefully —
// in-flight sessions finish, then the process exits 0), --connect runs the
// same question loop as local mode but over the binary session protocol,
// uploading the instance as CSV text and answering over the socket. The
// server names each question's representative rows and the client renders
// them from its own R and P, so both modes print the same transcript. Port
// 0 binds an ephemeral port and prints it.
//
// strategy ∈ {BU, TD, L1S, L2S, RND, EG}; default TD. Answer each prompt
// with y/n (or q to stop early and accept the current hypothesis).
//
// Interrupting the session (Ctrl-C) or exceeding --deadline-ms does not
// throw work away: the loop stops at the next question boundary and prints
// the current hypothesis — every answer given so far still counts
// (DESIGN.md §10: cancellation is cooperative, never mid-interaction).
//
// --store-dir=DIR attaches a persistent index store (DESIGN.md §8): the
// first run on an instance builds the signature index and persists it;
// every later run — in any process — mmaps the stored file instead of
// rebuilding. The banner prints which tier served the index
// (memory / mapped / built), so the reuse is observable:
//
//   $ interactive_cli --store-dir=/tmp/jidx R.csv P.csv   # index: built
//   $ interactive_cli --store-dir=/tmp/jidx R.csv P.csv   # index: mapped
//
// The session runs on the runtime layer: the index comes out of a
// runtime::IndexCache (a second CLI on the same CSVs inside one process
// would share the build) and questions are served through the
// runtime::Session step API — the loop below blocks on stdin between
// NextQuestion and Answer exactly the way a server parks a session while
// its user thinks.

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/omega.h"
#include "obs/exposition.h"
#include "relational/csv.h"
#include "relational/relation.h"
#include "runtime/index_cache.h"
#include "runtime/session.h"
#include "server/client.h"
#include "server/server.h"
#include "store/index_store.h"
#include "util/deadline.h"
#include "util/simd/dispatch.h"
#include "util/socket.h"

using namespace jinfer;

// Build the signature index with one worker per hardware thread; the
// resulting index is bit-identical to a serial build.
constexpr core::SignatureIndexOptions kIndexOptions{.compress = true,
                                                    .threads = 0};

namespace {

rel::Relation DemoFlight() {
  auto r = rel::Relation::Make("Flight", {"From", "To", "Airline"},
                               {{"Paris", "Lille", "AF"},
                                {"Lille", "NYC", "AA"},
                                {"NYC", "Paris", "AA"},
                                {"Paris", "NYC", "AF"}});
  return std::move(r).ValueOrDie();
}

rel::Relation DemoHotel() {
  auto p = rel::Relation::Make(
      "Hotel", {"City", "Discount"},
      {{"NYC", "AA"}, {"Paris", "None"}, {"Lille", "AF"}});
  return std::move(p).ValueOrDie();
}

/// Set by the SIGINT handler; checked at question boundaries. sig_atomic_t
/// is the only type the standard guarantees a handler may write.
volatile std::sig_atomic_t g_interrupted = 0;

void HandleSigint(int) { g_interrupted = 1; }

/// What the question loop needs of one step: the representative rows of
/// the next question, or that no informative question is left.
struct Question {
  bool finished = false;
  size_t rep_r = 0, rep_p = 0;
};

/// The question loop of both modes. `next()` yields the next Question;
/// `answer(label)` applies one label and yields the new hypothesis. The
/// loop stops at the next question boundary on Ctrl-C or once
/// `deadline_ms` (0 = none) has passed. Returns false after reporting an
/// error.
template <typename Next, typename Answer>
bool AskQuestions(const rel::Relation& r, const rel::Relation& p,
                  const core::Omega& omega, long deadline_ms, Next next,
                  Answer answer) {
  std::printf("Label each proposed pairing: y = belongs to your join, "
              "n = does not, q = stop.\n");
  if (deadline_ms > 0) {
    std::printf("Session deadline: %ld ms.\n", deadline_ms);
  }
  const util::Deadline deadline =
      util::Deadline::After(std::chrono::milliseconds(deadline_ms));
  size_t answered = 0;
  bool cancelled = false;
  while (true) {
    util::Result<Question> q = next();
    if (!q.ok()) {
      std::fprintf(stderr, "question failed: %s\n",
                   q.status().ToString().c_str());
      return false;
    }
    if (q->finished) {
      std::printf("\nNo informative tuples left — the query is determined "
                  "on this data.\n");
      return true;
    }
    if (g_interrupted || deadline.expired()) {
      cancelled = true;
      break;
    }
    std::printf("\nQuestion %zu:\n  %s\n  %s\nIn your join? [y/n/q] ",
                answered + 1, r.FormatRow(q->rep_r).c_str(),
                p.FormatRow(q->rep_p).c_str());
    std::fflush(stdout);

    std::string line;
    if (!std::getline(std::cin, line)) {
      // EOF, or EINTR from Ctrl-C (no SA_RESTART): stop cleanly either way
      // and keep every answer already given.
      cancelled = g_interrupted || errno == EINTR;
      break;
    }
    if (g_interrupted || deadline.expired()) {
      cancelled = true;
      break;
    }
    if (line == "q" || line == "Q") break;
    util::Result<core::JoinPredicate> hypothesis =
        answer(line == "y" || line == "Y" || line == "yes"
                   ? core::Label::kPositive
                   : core::Label::kNegative);
    if (!hypothesis.ok()) {
      std::printf("That answer contradicts your earlier ones: %s\n",
                  hypothesis.status().ToString().c_str());
      return false;
    }
    ++answered;
    std::printf("  current hypothesis: %s\n",
                omega.Format(*hypothesis).c_str());
  }
  if (cancelled) {
    std::printf("\n%s after %zu answered question(s); the hypothesis below "
                "reflects every answer so far.\n",
                g_interrupted ? "Interrupted" : "Deadline reached", answered);
  }
  return true;
}

/// --serve: the signal handler drains the server directly — RequestDrain
/// is an atomic store plus one write() on the wake pipe, both
/// async-signal-safe.
server::Server* g_server = nullptr;

void HandleDrainSignal(int) {
  if (g_server != nullptr) g_server->RequestDrain();
}

int RunServe(const std::string& spec, const std::string& store_dir) {
  auto endpoint = util::ParseEndpoint(spec);
  if (!endpoint.ok()) {
    std::fprintf(stderr, "bad --serve endpoint: %s\n",
                 endpoint.status().ToString().c_str());
    return 1;
  }
  server::ServerOptions options;
  options.host = endpoint->host;
  options.port = endpoint->port;
  options.workers = 2;
  options.runtime.cache_options.build = kIndexOptions;
  if (!store_dir.empty()) {
    auto store = store::IndexStore::Open(store_dir);
    if (!store.ok()) {
      std::fprintf(stderr, "cannot open store: %s\n",
                   store.status().ToString().c_str());
      return 1;
    }
    options.runtime.cache_options.store =
        std::make_shared<store::IndexStore>(std::move(store).ValueOrDie());
  }
  static server::Server server(options);
  g_server = &server;
  util::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot serve: %s\n", started.ToString().c_str());
    return 1;
  }
  struct sigaction sa = {};
  sa.sa_handler = HandleDrainSignal;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  std::printf("serving on %s:%u (SIGTERM or Ctrl-C drains gracefully)\n",
              endpoint->host.c_str(), server.port());
  std::fflush(stdout);
  util::Status st = server.Wait();
  server::StatsOkBody stats = server.Stats();
  std::printf("drained: %llu connection(s) served, %llu session(s) "
              "completed, %llu aborted, %llu frames read\n",
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.sessions_completed),
              static_cast<unsigned long long>(stats.sessions_aborted),
              static_cast<unsigned long long>(stats.frames_read));
  if (!st.ok()) {
    std::fprintf(stderr, "serve failed: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

int RunConnect(const std::string& spec, const rel::Relation& r,
               const rel::Relation& p, const std::string& strategy_name,
               long deadline_ms, bool metrics_dump) {
  // The server sends predicates as raw words; Ω over the local schemas is
  // the one the server's index formats them with.
  auto omega = core::Omega::Make(r.schema(), p.schema());
  if (!omega.ok()) {
    std::fprintf(stderr, "%s\n", omega.status().ToString().c_str());
    return 1;
  }
  auto endpoint = util::ParseEndpoint(spec);
  if (!endpoint.ok()) {
    std::fprintf(stderr, "bad --connect endpoint: %s\n",
                 endpoint.status().ToString().c_str());
    return 1;
  }
  auto client = server::Client::Connect(endpoint->host, endpoint->port);
  if (!client.ok()) {
    std::fprintf(stderr, "cannot connect: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }

  server::OpenSessionBody open;
  open.strategy = strategy_name;
  open.seed = std::random_device{}();
  open.compress = 1;
  open.r_name = r.schema().relation_name();
  open.p_name = p.schema().relation_name();
  open.r_csv = rel::WriteRelationCsv(r);
  open.p_csv = rel::WriteRelationCsv(p);

  auto opened = client->OpenSession(open);
  if (!opened.ok() && server::RetryLater(opened.status())) {
    std::fprintf(stderr, "server busy (%s); retrying once...\n",
                 opened.status().ToString().c_str());
    opened = client->OpenSession(open);
  }
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::printf("%zu x %zu rows -> %llu candidate tuples (%llu classes), "
              "strategy %s, index: %s (remote session %llu)\n",
              r.num_rows(), p.num_rows(),
              static_cast<unsigned long long>(opened->num_tuples),
              static_cast<unsigned long long>(opened->num_classes),
              strategy_name.c_str(),
              runtime::IndexTierName(
                  static_cast<runtime::IndexTier>(opened->index_tier)),
              static_cast<unsigned long long>(opened->session_id));
  const bool asked = AskQuestions(
      r, p, *omega, deadline_ms,
      [&]() -> util::Result<Question> {
        JINFER_ASSIGN_OR_RETURN(server::QuestionBody q,
                                client->NextQuestion());
        // The row numbers come off the wire: never index past our data.
        if (q.finished == 0 &&
            (q.rep_r >= r.num_rows() || q.rep_p >= p.num_rows())) {
          return util::Status::ParseError(
              "question names a row outside the uploaded relations");
        }
        return Question{q.finished != 0, q.rep_r, q.rep_p};
      },
      [&](core::Label label) -> util::Result<core::JoinPredicate> {
        JINFER_ASSIGN_OR_RETURN(
            server::QuestionBody next,
            client->Answer(label == core::Label::kPositive));
        return server::PredicateFromWords(next.predicate_words);
      });
  if (!asked) return 1;

  auto closed = client->CloseSession();
  if (!closed.ok()) {
    std::fprintf(stderr, "close failed: %s\n",
                 closed.status().ToString().c_str());
    return 1;
  }
  std::printf("\nInferred join predicate: %s (%llu interaction(s))\n",
              omega->Format(server::PredicateFromWords(
                                closed->predicate_words))
                  .c_str(),
              static_cast<unsigned long long>(closed->num_interactions));
  if (metrics_dump) {
    auto metrics = client->ServerMetrics();
    if (!metrics.ok()) {
      std::fprintf(stderr, "metrics fetch failed: %s\n",
                   metrics.status().ToString().c_str());
      return 1;
    }
    std::printf("\n# server metrics (live, via kMetrics frame)\n%s",
                metrics->text.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  rel::Relation r, p;
  std::string strategy_name = "TD";
  std::string store_dir;
  std::string serve_spec, connect_spec;
  long deadline_ms = 0;
  bool metrics_dump = false;

  // Split --store-dir[=DIR], --serve[=H:P], --connect[=H:P] and
  // --deadline-ms=N off before the positional arguments.
  std::vector<std::string> args;
  for (int a = 1; a < argc; ++a) {
    std::string arg = argv[a];
    if (arg.rfind("--store-dir=", 0) == 0) {
      store_dir = arg.substr(std::strlen("--store-dir="));
    } else if (arg == "--store-dir" && a + 1 < argc) {
      store_dir = argv[++a];
    } else if (arg.rfind("--serve=", 0) == 0) {
      serve_spec = arg.substr(std::strlen("--serve="));
    } else if (arg == "--serve" && a + 1 < argc) {
      serve_spec = argv[++a];
    } else if (arg.rfind("--connect=", 0) == 0) {
      connect_spec = arg.substr(std::strlen("--connect="));
    } else if (arg == "--connect" && a + 1 < argc) {
      connect_spec = argv[++a];
    } else if (arg == "--metrics-dump") {
      metrics_dump = true;
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      char* end = nullptr;
      deadline_ms = std::strtol(arg.c_str() + std::strlen("--deadline-ms="),
                                &end, 10);
      if (end == nullptr || *end != '\0' || deadline_ms < 0) {
        std::fprintf(stderr, "bad --deadline-ms value in '%s'\n",
                     arg.c_str());
        return 1;
      }
    } else {
      args.push_back(std::move(arg));
    }
  }

  if (!serve_spec.empty()) return RunServe(serve_spec, store_dir);

  // Graceful Ctrl-C: no SA_RESTART, so a blocked getline returns EINTR and
  // the loop exits at the question boundary with the session state intact.
  struct sigaction sa = {};
  sa.sa_handler = HandleSigint;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGINT, &sa, nullptr);

  if (args.size() >= 2) {
    auto rr = rel::ReadRelationCsvFile(args[0], "R");
    auto pp = rel::ReadRelationCsvFile(args[1], "P");
    if (!rr.ok() || !pp.ok()) {
      std::fprintf(stderr, "load failed: %s / %s\n",
                   rr.status().ToString().c_str(),
                   pp.status().ToString().c_str());
      return 1;
    }
    r = std::move(rr).ValueOrDie();
    p = std::move(pp).ValueOrDie();
    if (args.size() >= 3) strategy_name = args[2];
  } else {
    std::printf("No CSVs given; using the paper's Flight/Hotel demo.\n\n");
    r = DemoFlight();
    p = DemoHotel();
    if (args.size() == 1) strategy_name = args[0];
  }

  auto kind = core::StrategyKindFromName(strategy_name);
  if (!kind.ok()) {
    std::fprintf(stderr, "unknown strategy %s (try BU/TD/L1S/L2S/RND/EG)\n",
                 strategy_name.c_str());
    return 1;
  }

  if (!connect_spec.empty()) {
    return RunConnect(connect_spec, r, p, strategy_name, deadline_ms,
                      metrics_dump);
  }

  runtime::IndexCacheOptions cache_options;
  cache_options.build = kIndexOptions;
  if (!store_dir.empty()) {
    auto store = store::IndexStore::Open(store_dir);
    if (!store.ok()) {
      std::fprintf(stderr, "cannot open store: %s\n",
                   store.status().ToString().c_str());
      return 1;
    }
    cache_options.store =
        std::make_shared<store::IndexStore>(std::move(store).ValueOrDie());
  }
  runtime::IndexCache cache(cache_options);
  auto tiered = cache.GetOrBuildTiered(r, p);
  if (!tiered.ok()) {
    std::fprintf(stderr, "%s\n", tiered.status().ToString().c_str());
    return 1;
  }
  auto index = tiered->index;
  runtime::Session session(
      index, core::MakeStrategy(*kind, /*seed=*/std::random_device{}()));

  std::printf("%zu x %zu rows -> %llu candidate tuples (%zu classes), "
              "strategy %s, index: %s, kernels: %s\n",
              r.num_rows(), p.num_rows(),
              static_cast<unsigned long long>(index->num_tuples()),
              index->num_classes(), core::StrategyKindName(*kind),
              runtime::IndexTierName(tiered->tier),
              util::simd::KernelBackendName(
                  util::simd::ActiveKernelBackend()));
  const bool asked = AskQuestions(
      r, p, session.index().omega(), deadline_ms,
      [&]() -> util::Result<Question> {
        const std::optional<core::ClassId> next = session.NextQuestion();
        if (!next.has_value()) return Question{.finished = true};
        const core::SignatureClass& cls = session.index().cls(*next);
        return Question{false, cls.rep_r, cls.rep_p};
      },
      [&](core::Label label) -> util::Result<core::JoinPredicate> {
        JINFER_RETURN_NOT_OK(session.Answer(label));
        return session.CurrentPredicate();
      });
  if (!asked) return 1;

  std::printf("\nInferred join predicate: %s (%zu interaction(s))\n",
              session.index().omega().Format(
                  session.CurrentPredicate()).c_str(),
              session.num_interactions());
  if (metrics_dump) {
    std::printf("\n# process metrics\n%s",
                obs::RenderPrometheusText().c_str());
  }
  return 0;
}
