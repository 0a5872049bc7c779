// Server: the fault-tolerant network serving front end (DESIGN.md §11).
//
// One poll()-driven event thread owns the listener and every Connection,
// and each Connection owns its one runtime::Session. Every reply that
// follows an open or an answer carries the session's next question, so an
// interaction costs one round trip; the reply that says "finished" ends
// the session. Frames of bounded cost — closes, the answers and questions
// of a strategy that picks in one pass over the classes (BU, TD, RND),
// and the opens of such a strategy that repeat an upload byte for byte
// while its index is resident (recognised by a digest of the upload's
// bytes, an IndexCache alias: no parse, no fingerprint) — run on the
// event thread, which starts writing the reply in the same poll round.
// Other opens, metrics scrapes and the answers and questions of
// lookahead, EG and OPT go to a small worker pool; RunsInline (server.cc)
// is the one routing rule. A worker frame carries
// its connection's session to the worker and its completion carries it
// back, so one thread at a time touches a session and it needs no lock of
// its own. The event thread never runs unbounded inference and the
// workers never touch a socket, so a slow client cannot wedge a worker
// and a slow build or search cannot wedge the event loop. Exactly one
// frame per connection is in flight at a time — reading pauses while a
// frame is being processed, which is the natural per-connection
// backpressure and what serializes a session's transcript.
//
// Failure-domain map (the robustness contract this PR exists for):
//   malformed frame      typed kError frame (kParseError) then close —
//                        never a crash, never trust a length prefix
//   read/write/idle      connection closed with kDeadlineExceeded; its
//     deadline expiry    session dies with it (IndexCache pin released)
//   overload             the work queue (max_pending_work, worker frames)
//                        sheds at dispatch with a kResourceExhausted
//                        RETRY_LATER frame — refuse, never queue without
//                        bound; max_connections bounds sessions, one per
//                        connection. ErrorFrame sets RETRY_LATER from the
//                        code (RetryLater, protocol.h), so every shed or
//                        transient refusal carries it and nothing else does
//   slow client          write buffer capped; overflow closes the
//                        connection instead of growing the heap
//   SIGTERM              RequestDrain (async-signal-safe): close the
//                        listening socket, serve in-flight sessions to
//                        completion or the drain deadline, then exit with
//                        Status::OK
//   injected faults      server.accept (AcceptPending: the connection
//                        stays pending until the next poll round) /
//                        server.conn.read / server.conn.write /
//                        server.frame.decode — a tripped connection dies
//                        alone; every surviving session's transcript is
//                        bit-identical to a fault-free in-process run
//                        (tests/chaos/).

#ifndef JINFER_SERVER_SERVER_H_
#define JINFER_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/signature_index.h"
#include "core/strategy.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "runtime/index_cache.h"
#include "runtime/session.h"
#include "server/connection.h"
#include "server/frame.h"
#include "server/protocol.h"
#include "util/result.h"
#include "util/socket.h"

namespace jinfer {
namespace server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral; read the real one via port().

  /// Threads for the frames the event thread does not run itself: opens
  /// (CSV parse, fingerprint, index build, first pick) other than one-pass
  /// repeats of a resident upload, metrics scrapes, and the answers and
  /// questions of lookahead, EG and OPT. >= 1.
  int workers = 2;

  /// Accepted connections beyond this are not accepted (the listener is
  /// simply not polled while full — the kernel backlog absorbs bursts).
  /// A connection holds at most one session, so this bounds sessions too.
  size_t max_connections = 256;

  /// Bound on frames queued for the workers and not yet claimed; frames
  /// run on the event thread never enter the queue. A worker frame
  /// arriving past the bound is answered immediately with
  /// kResourceExhausted RETRY_LATER and never queued — load shedding, not
  /// buffering.
  size_t max_pending_work = 64;

  /// Per-connection deadlines and caps (connection.h).
  ConnectionLimits limits;

  /// Budget for a graceful drain: after RequestDrain, in-flight
  /// connections get this long to finish before being closed.
  std::chrono::milliseconds drain_deadline{3000};

  /// The session layer underneath: the server's IndexCache (build
  /// options, memory-tier bound, optional store tier).
  struct {
    runtime::IndexCacheOptions cache_options;
  } runtime;
};

/// Server::Stats() snapshot: the operator's quick figures.
struct StatsOkBody {
  uint64_t connections_accepted = 0;
  uint64_t connections_open = 0;
  uint64_t sessions_opened = 0;
  uint64_t sessions_open = 0;
  uint64_t sessions_completed = 0;
  uint64_t sessions_aborted = 0;   ///< Dropped with their connection, or
                                   ///< stranded in flight by a stop.
  uint64_t frames_read = 0;
  uint64_t frames_written = 0;
  uint64_t protocol_errors = 0;    ///< Malformed frames answered + closed.
  uint64_t deadline_closes = 0;    ///< Connections closed by a deadline.
  uint64_t cache_hits = 0;         ///< IndexCache memory-tier hits.
  uint64_t cache_builds = 0;       ///< Full index builds run.
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the event thread + workers. After OK, the
  /// server is reachable on port().
  util::Status Start();

  /// The bound port (resolves an ephemeral bind).
  uint16_t port() const { return port_; }

  /// Begins a graceful drain: stop accepting, finish in-flight work within
  /// drain_deadline, then Wait() returns OK. Async-signal-safe (an atomic
  /// store plus one write() on the wake pipe) — call it from a SIGTERM
  /// handler directly.
  void RequestDrain();

  /// Hard stop: close everything now. Wait() still returns OK.
  void RequestStop();

  /// Joins the event thread and workers; returns the serve status (OK for
  /// a drain or stop, an error if the event loop died on its own).
  util::Status Wait();

  /// Point-in-time counters for in-process callers (the CLI's drain
  /// banner, benches, tests), read from the server's and its cache's own
  /// counter cells. Remote callers read the same cells on kMetrics.
  StatsOkBody Stats();

 private:
  /// The event thread's connection table, keyed by fd.
  using ConnMap = std::unordered_map<int, std::unique_ptr<Connection>>;

  /// A dispatched request frame, bound to its connection by (fd,
  /// generation) — fds are reused by the kernel, generations never are.
  struct Work {
    int fd = -1;
    uint64_t generation = 0;
    Frame frame;
    std::unique_ptr<runtime::Session> session;  ///< The connection's, if
                                                ///< one is open.
    uint64_t enqueue_nanos = 0;  ///< When the event thread queued it (obs:
                                 ///< the frame-queue wait span).
    // What ProbeOpen learned of an open before routing it.
    /// The upload's digest; the worker attaches it to the index it
    /// resolves, so the next byte-identical upload opens inline.
    std::optional<store::InstanceFingerprint> upload;
    /// A repeat upload's resident index, and the requested strategy: the
    /// open runs inline on them.
    std::shared_ptr<const core::SignatureIndex> resident;
    std::unique_ptr<core::Strategy> strategy;
  };

  /// A handled frame's answer, delivered on the event thread (the only
  /// thread allowed to touch a Connection): a worker's goes through the
  /// done queue, an inline frame's straight to Deliver.
  struct Completion {
    int fd = -1;
    uint64_t generation = 0;
    std::vector<uint8_t> bytes;  ///< Encoded response frame.
    bool close_after = false;    ///< Close once the response is flushed.
    /// The session going back to the connection: the one that went out,
    /// a new one after an open, null once the session ended (a close, or
    /// a reply that says finished). Dropped (counted aborted) if the
    /// connection died meanwhile.
    std::unique_ptr<runtime::Session> session;
  };

  void EventLoop();
  void WorkerLoop();

  // --- Event-thread helpers (no locking on conns_) ---------------------
  void AcceptPending();
  void HandleReadable(Connection& conn);
  void HandleWritable(Connection& conn);
  void ApplyCompletions();
  /// Hands a finished frame back to its connection, from a worker's
  /// completion or an inline run alike: returns the session, enqueues the
  /// reply, starts the flush and honours close-after. Returns the
  /// connection, or null once it is gone (it died meanwhile, or closed
  /// here).
  Connection* Deliver(Completion c);
  /// Closes the connection (its session, if it holds one, is aborted).
  /// The iterator form returns the next connection, for a walk over
  /// conns_ that closes as it goes.
  void CloseConn(int fd);
  ConnMap::iterator CloseConn(ConnMap::iterator it);
  /// Sends `status` as a best-effort WILL_CLOSE goodbye and closes at once,
  /// flushed or not: no flush patience for a connection past its deadline
  /// or the drain's. Returns the next connection.
  ConnMap::iterator GoodbyeAndClose(ConnMap::iterator it,
                                    const util::Status& status);
  void SendErrorAndClose(Connection& conn, const util::Status& status);
  bool EnqueueOrClose(Connection& conn, std::vector<uint8_t> bytes);
  /// Runs `frame` on this thread when RunsInline (server.cc) allows it,
  /// else queues it with the connection's session, or answers it at once
  /// when the work queue sheds it. False when the answer closed the
  /// connection.
  bool Dispatch(Connection& conn, Frame frame);
  /// For an open of at most one read chunk on a connection with no
  /// session: decodes and digests the upload into `work`, and, when the
  /// open would run inline once resident and the server is not draining,
  /// looks the digest up in the cache (IndexCache::FindResident).
  void ProbeOpen(Work& work);

  /// Sessions opened and not yet ended (the three counters' difference).
  uint64_t SessionsOpen() const;

  // --- Frame handlers (a worker, or the event thread for inline frames) -
  // HandleFrame times the frame-execute span; each handler fills `c`,
  // which already holds the connection's session.
  Completion HandleFrame(Work work);
  void HandleOpenSession(Work& work, Completion& c);
  void HandleNextQuestion(const Frame& frame, Completion& c);
  void HandleAnswer(const Frame& frame, Completion& c);
  void HandleCloseSession(const Frame& frame, Completion& c);
  void HandleMetrics(const Frame& frame, Completion& c);

  /// The session's pending question, picked now if none is pending: the
  /// one question fill behind the open, answer and next-question replies.
  /// A finished question carries the final predicate and count, and ends
  /// the session.
  QuestionBody AskNext(Completion& c);
  /// Ends the session `c` holds, for a close or a finishing reply alike:
  /// the connection gets none back, and it counts as closed.
  void EndSession(Completion& c);
  /// Opens a session on `index` for both open routes: counts it opened
  /// and answers with an OpenOk carrying the first question.
  void StartSession(std::shared_ptr<const core::SignatureIndex> index,
                    runtime::IndexTier tier,
                    std::unique_ptr<core::Strategy> strategy, Completion& c);

  /// The kError frame for `status`: RETRY_LATER when RetryLater(status),
  /// WILL_CLOSE when the connection closes after it.
  static std::vector<uint8_t> ErrorFrame(const util::Status& status,
                                         bool will_close = false);

  /// Answers a malformed or cross-tenant request: counts a protocol error,
  /// replies with a typed error frame and closes the connection.
  void RejectFrame(Completion& c, const util::Status& status);

  ServerOptions options_;
  runtime::IndexCache cache_;
  util::WakePipe wake_;

  /// The listening socket; a drain's first step closes it.
  util::Socket listener_;
  uint16_t port_ = 0;
  std::thread event_thread_;
  std::vector<std::thread> worker_threads_;
  bool started_ = false;
  bool joined_ = false;
  util::Status serve_status_;

  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> draining_{false};

  // Event-thread-only connection table.
  ConnMap conns_;
  uint64_t next_generation_ = 1;

  /// Wire ids of opened sessions; each is also the session's trace id.
  std::atomic<uint64_t> next_session_id_{1};

  // Work / completion queues.
  std::mutex work_mu_;
  std::condition_variable work_cv_;
  std::deque<Work> work_;
  bool workers_done_ = false;

  std::mutex done_mu_;
  std::deque<Completion> done_;

  /// Server-level counters (event thread + workers) and gauges (connections
  /// set at accept and close, sessions once per loop round, the queue at
  /// each push and pop) — each cell the only store of its figure,
  /// attached to the process-wide series of the same name (DESIGN.md
  /// §13.1).
  struct Counters {
    obs::OwnedCounter connections_accepted{
        obs::kServerConnectionsAcceptedTotal};
    obs::OwnedCounter frames_read{obs::kServerFramesReadTotal};
    obs::OwnedCounter frames_written{obs::kServerFramesWrittenTotal};
    obs::OwnedCounter protocol_errors{obs::kServerProtocolErrorsTotal};
    obs::OwnedCounter deadline_closes{obs::kServerDeadlineClosesTotal};
    obs::OwnedCounter work_shed{obs::kServerWorkShedTotal};
    // One counter per way a session ends; open = opened − closed − aborted.
    obs::OwnedCounter sessions_opened{obs::kServerSessionsOpenedTotal};
    obs::OwnedCounter sessions_closed{obs::kServerSessionsClosedTotal};
    obs::OwnedCounter sessions_aborted{obs::kServerSessionsAbortedTotal};
    obs::OwnedGauge connections_open{obs::kServerConnectionsOpen};
    obs::OwnedGauge sessions_open{obs::kServerSessionsOpen};
    obs::OwnedGauge pending_work{obs::kServerPendingWork};
  };
  Counters counters_;
};

}  // namespace server
}  // namespace jinfer

#endif  // JINFER_SERVER_SERVER_H_
