#include "server/server.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <span>
#include <utility>

#include "core/strategy.h"
#include "obs/exposition.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/csv.h"
#include "store/fingerprint.h"
#include "util/failpoint.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace jinfer {
namespace server {

namespace {

/// The server's frame-phase latency histograms, process-wide (DESIGN.md
/// §13.1). The decode leg is recorded in connection.cc.
struct ServerMetrics {
  obs::Histogram& frame_queue_nanos;
  obs::Histogram& frame_execute_nanos;

  static ServerMetrics& Get() {
    static ServerMetrics* m = new ServerMetrics{
        obs::Registry::Global().histogram(obs::kServerFrameQueueNanos),
        obs::Registry::Global().histogram(obs::kServerFrameExecuteNanos),
    };
    return *m;
  }
};

/// Prologue of the session-scoped handlers: the body must decode and name
/// the connection's own session. Anything else is a protocol violation —
/// a cross-tenant one when it names another session — that closes the
/// connection.
template <typename Body>
util::Status CheckOwned(const util::Result<Body>& body,
                        const runtime::Session* session) {
  if (!body.ok()) return body.status();
  if (session == nullptr || body->session_id != session->trace_id()) {
    return util::Status::FailedPrecondition(
        "frame names a session this connection does not own");
  }
  return util::Status::OK();
}

/// The routing rule: whether a frame of `type` runs on the event thread.
/// `strategy` is the one its pick would run: the connection's session's
/// for an answer or question (null with no session), the requested one
/// for an open. `resident` says an open is a repeat upload whose index the
/// cache holds in memory; Dispatch learns it only for an open of at most
/// one read chunk, on a connection with no session, while the server is
/// not draining (ProbeOpen). Only frames whose cost is bounded by a pass
/// over the classes run inline:
///  - a close;
///  - an answer or question of a strategy that picks in one pass (BU, TD,
///    RND): an answer's reply carries the next pick, so it costs one
///    ApplyLabel plus that pass; with no session to act on it is a cheap
///    reject;
///  - a repeat open of such a strategy: a cache probe by digest, the
///    session's construction and its first pick — no CSV parse, no
///    fingerprint, no build.
/// Every other open (CSV parse, fingerprint, maybe a build, the first
/// pick), metrics scrapes and the answers and questions of lookahead, EG
/// and OPT go to the workers, so one expensive frame never stalls the
/// other connections (DESIGN.md §11.2).
bool RunsInline(FrameType type, const core::Strategy* strategy,
                bool resident) {
  switch (type) {
    case FrameType::kCloseSession:
      return true;
    case FrameType::kAnswer:
    case FrameType::kNextQuestion:
      return strategy == nullptr || strategy->one_pass();
    case FrameType::kOpenSession:
      return resident && strategy->one_pass();
    default:
      return false;
  }
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)), cache_(options_.runtime.cache_options) {
  if (options_.workers < 1) options_.workers = 1;
}

Server::~Server() {
  if (started_ && !joined_) {
    RequestStop();
    (void)Wait();
  }
}

util::Status Server::Start() {
  if (started_) {
    return util::Status::FailedPrecondition("server already started");
  }
  JINFER_ASSIGN_OR_RETURN(util::Socket listener,
                          util::ListenTcp(options_.host, options_.port));
  JINFER_ASSIGN_OR_RETURN(port_, util::BoundPort(listener));
  listener_ = std::move(listener);
  started_ = true;
  event_thread_ = std::thread(&Server::EventLoop, this);
  worker_threads_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    worker_threads_.emplace_back(&Server::WorkerLoop, this);
  }
  return util::Status::OK();
}

void Server::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  wake_.Notify();
}

void Server::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  wake_.Notify();
}

util::Status Server::Wait() {
  if (!started_) {
    return util::Status::FailedPrecondition("server never started");
  }
  if (joined_) return serve_status_;
  event_thread_.join();
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    workers_done_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : worker_threads_) t.join();
  worker_threads_.clear();
  // Completions that landed after the event loop exited still hold their
  // sessions (an open finishing during a stop): they end here.
  for (const Completion& c : done_) {
    if (c.session != nullptr) counters_.sessions_aborted.Inc();
  }
  done_.clear();
  joined_ = true;
  return serve_status_;
}

uint64_t Server::SessionsOpen() const {
  // Ends first: a session's end is counted after its open, so a racing
  // read can only overstate the level; the clamp guards the rest.
  const uint64_t ended = counters_.sessions_closed.Value() +
                         counters_.sessions_aborted.Value();
  const uint64_t opened = counters_.sessions_opened.Value();
  return opened > ended ? opened - ended : 0;
}

StatsOkBody Server::Stats() {
  StatsOkBody out;
  out.connections_accepted = counters_.connections_accepted.Value();
  out.connections_open =
      static_cast<uint64_t>(counters_.connections_open.Value());
  out.sessions_opened = counters_.sessions_opened.Value();
  out.sessions_open = SessionsOpen();
  out.sessions_completed = counters_.sessions_closed.Value();
  out.sessions_aborted = counters_.sessions_aborted.Value();
  out.frames_read = counters_.frames_read.Value();
  out.frames_written = counters_.frames_written.Value();
  out.protocol_errors = counters_.protocol_errors.Value();
  out.deadline_closes = counters_.deadline_closes.Value();
  const runtime::IndexCacheStats c = cache_.stats();
  out.cache_hits = c.hits;
  out.cache_builds = c.builds;
  return out;
}

std::vector<uint8_t> Server::ErrorFrame(const util::Status& status,
                                        bool will_close) {
  ErrorBody body;
  body.code = static_cast<uint32_t>(status.code());
  body.flags = (RetryLater(status) ? kErrorFlagRetryLater : 0) |
               (will_close ? kErrorFlagWillClose : 0);
  body.message = status.message();
  return EncodeFrame(FrameType::kError, Encode(body));
}

void Server::RejectFrame(Completion& c, const util::Status& status) {
  counters_.protocol_errors.Inc();
  c.bytes = ErrorFrame(status, /*will_close=*/true);
  c.close_after = true;
}

// ---------------------------------------------------------------------------
// Event thread
// ---------------------------------------------------------------------------

void Server::EventLoop() {
  using Clock = Connection::Clock;
  Clock::time_point drain_at = Clock::time_point::max();
  std::vector<pollfd> pfds;

  while (true) {
    if (stop_requested_.load(std::memory_order_acquire)) break;
    // The round's one clock read: the drain deadline and every
    // connection's deadlines are judged against it.
    const Clock::time_point now = Clock::now();
    if (drain_requested_.load(std::memory_order_acquire) &&
        !draining_.load(std::memory_order_relaxed)) {
      // Drain step 1: close the listening socket, so the kernel refuses
      // new connections; keep serving accepted ones.
      draining_.store(true, std::memory_order_release);
      listener_.Close();
      drain_at = now + options_.drain_deadline;
    }
    if (draining_.load(std::memory_order_relaxed)) {
      if (conns_.empty()) break;  // Drained cleanly.
      if (now >= drain_at) {
        // Drain step 3: patience is over — one goodbye frame, hard close.
        const util::Status goodbye =
            util::Status::DeadlineExceeded("server drain deadline reached");
        for (auto it = conns_.begin(); it != conns_.end();) {
          it = GoodbyeAndClose(it, goodbye);
        }
        break;
      }
    }

    // The poll set: wake pipe, listener (when accepting), then every
    // connection with read or write interest, gathered in the round's one
    // walk over conns_. The walk first closes a connection past a
    // deadline.
    pfds.clear();
    pfds.push_back(pollfd{wake_.read_fd(), POLLIN, 0});
    const bool accepting = !draining_.load(std::memory_order_relaxed) &&
                           listener_.valid() &&
                           conns_.size() < options_.max_connections;
    size_t listener_slot = 0;
    if (accepting) {
      listener_slot = pfds.size();
      pfds.push_back(pollfd{listener_.fd(), POLLIN, 0});
    }
    const size_t conn_base = pfds.size();
    Clock::time_point earliest = drain_at;
    for (auto it = conns_.begin(); it != conns_.end();) {
      Connection& conn = *it->second;
      if (const char* reason = conn.ExpiredReason(now)) {
        counters_.deadline_closes.Inc();
        std::fprintf(stderr, "[jinfer-server] connection fd=%d closed: %s\n",
                     it->first, reason);
        it = GoodbyeAndClose(it, util::Status::DeadlineExceeded(reason));
        continue;
      }
      short events = 0;
      if (conn.wants_read()) events |= POLLIN;
      if (conn.wants_write()) events |= POLLOUT;
      if (events != 0) pfds.push_back(pollfd{it->first, events, 0});
      earliest = std::min(earliest, conn.NextDeadline());
      ++it;
    }

    int timeout_ms = 500;  // Idle heartbeat (flag checks are cheap).
    if (earliest != Clock::time_point::max()) {
      const auto until =
          std::chrono::ceil<std::chrono::milliseconds>(earliest - now);
      timeout_ms = static_cast<int>(
          std::clamp<int64_t>(until.count(), 0, 500));
    }

    const int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      serve_status_ = util::Status::IoError(
          util::StrFormat("poll failed: %s", std::strerror(errno)));
      break;
    }

    if (pfds[0].revents != 0) wake_.Drain();
    // Once per round (the idle heartbeat bounds the staleness at ~500 ms),
    // from three counters and no lock. The connection and queue gauges are
    // set where their levels change.
    counters_.sessions_open.Set(static_cast<int64_t>(SessionsOpen()));
    ApplyCompletions();
    if (accepting && pfds[listener_slot].revents != 0) AcceptPending();
    for (size_t i = conn_base; i < pfds.size(); ++i) {
      auto it = conns_.find(pfds[i].fd);
      if (it == conns_.end()) continue;  // Closed earlier this round.
      const short re = pfds[i].revents;
      if (re == 0) continue;
      if (re & POLLOUT) {
        HandleWritable(*it->second);
        it = conns_.find(pfds[i].fd);
        if (it == conns_.end()) continue;
      }
      if (re & (POLLIN | POLLERR | POLLHUP)) {
        if (it->second->wants_read()) HandleReadable(*it->second);
      }
    }
  }

  // Teardown: every remaining connection closes, and the sessions they
  // hold abort (their IndexCache pins drop with them).
  for (auto it = conns_.begin(); it != conns_.end();) it = CloseConn(it);
  listener_.Close();
}

void Server::AcceptPending() {
  while (conns_.size() < options_.max_connections &&
         !draining_.load(std::memory_order_relaxed)) {
    // An injected accept fault is transient: poll again, and the pending
    // connection is still there.
    if (!util::FailpointHit("server.accept").ok()) break;
    auto sock = util::AcceptTcp(listener_);
    if (!sock.ok()) break;  // Nothing pending.
    const int fd = sock->fd();
    conns_.emplace(fd, std::make_unique<Connection>(
                           std::move(*sock), next_generation_++,
                           options_.limits));
    counters_.connections_accepted.Inc();
    counters_.connections_open.Set(static_cast<int64_t>(conns_.size()));
  }
}

bool Server::EnqueueOrClose(Connection& conn, std::vector<uint8_t> bytes) {
  const int fd = conn.sock().fd();
  if (!conn.Enqueue(bytes)) {
    // Slow client: the write cap is the bound, the close is the policy.
    CloseConn(fd);
    return false;
  }
  counters_.frames_written.Inc();
  return true;
}

void Server::SendErrorAndClose(Connection& conn, const util::Status& status) {
  const int fd = conn.sock().fd();
  if (!EnqueueOrClose(conn, ErrorFrame(status, /*will_close=*/true))) {
    return;  // Already closed.
  }
  conn.CloseAfterFlush();
  auto flushed = conn.OnWritable();
  if (!flushed.ok() || *flushed) CloseConn(fd);
}

void Server::HandleReadable(Connection& conn) {
  const int fd = conn.sock().fd();
  // Poll reports pipelined bytes once: while a frame answered on the spot
  // (inline, or shed) leaves more buffered, serve the next one now. An
  // inline reject that set close-after-flush stops the loop here.
  do {
    auto ev = conn.OnReadable();
    if (!ev.ok()) {
      if (ev.status().code() == util::StatusCode::kParseError) {
        // Malformed framing: say why (typed error frame), then close.
        counters_.protocol_errors.Inc();
        SendErrorAndClose(conn, ev.status());
      } else {
        // Broken socket, or an injected read/decode fault: this connection
        // dies; no frame was half-applied, no other tenant notices.
        CloseConn(fd);
      }
      return;
    }
    switch (ev->kind) {
      case Connection::ReadEvent::kNoProgress:
        return;
      case Connection::ReadEvent::kPeerClosed:
        CloseConn(fd);
        return;
      case Connection::ReadEvent::kFrame:
        break;
    }

    counters_.frames_read.Inc();
    if (!IsRequestType(static_cast<uint8_t>(ev->frame.type))) {
      counters_.protocol_errors.Inc();
      SendErrorAndClose(
          conn, util::Status::ParseError("response-type frame from client"));
      return;
    }
    if (!Dispatch(conn, std::move(ev->frame))) return;
  } while (conn.wants_read() && conn.has_buffered_input());
}

bool Server::Dispatch(Connection& conn, Frame frame) {
  Work work;
  work.fd = conn.sock().fd();
  work.generation = conn.generation();
  work.frame = std::move(frame);
  const core::Strategy* strategy =
      conn.session() != nullptr ? &conn.session()->strategy() : nullptr;
  if (work.frame.type == FrameType::kOpenSession &&
      conn.session() == nullptr) {
    ProbeOpen(work);
    strategy = work.strategy.get();
  }
  if (RunsInline(work.frame.type, strategy, work.resident != nullptr)) {
    // Run it here and start the reply's write in this poll round: no
    // queue, no wake, no hand-back.
    work.session = conn.BeginWork();
    return Deliver(HandleFrame(std::move(work))) != nullptr;
  }
  work.enqueue_nanos = util::SystemClock()->NowNanos();
  // Load shedding: the work queue is the bound; a frame past it is refused
  // at once with RETRY_LATER instead of buffered toward an OOM.
  bool queued = false;
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    if (work_.size() < options_.max_pending_work) {
      work.session = conn.BeginWork();
      work_.push_back(std::move(work));
      counters_.pending_work.Set(static_cast<int64_t>(work_.size()));
      queued = true;
    }
  }
  if (!queued) {
    counters_.work_shed.Inc();
    return EnqueueOrClose(conn, ErrorFrame(util::Status::ResourceExhausted(
                                    "server overloaded; retry later")));
  }
  work_cv_.notify_one();
  return true;
}

void Server::ProbeOpen(Work& work) {
  // The digest costs about what the frame's checksum did: ~45 µs at
  // 64 KiB, but ~23 ms for a 32 MiB upload (4-vCPU KVM guest), which
  // would stall every other tenant. Larger opens go to a worker
  // undigested.
  if (work.frame.payload.size() > kReadChunk) return;
  auto body = DecodeOpenSession(std::span<const uint8_t>(work.frame.payload));
  if (!body.ok()) return;  // The worker rejects it.
  work.upload = store::FingerprintUpload(body->r_name, body->r_csv,
                                         body->p_name, body->p_csv,
                                         body->compress != 0);
  // A draining server refuses opens; the worker says so.
  if (draining_.load(std::memory_order_relaxed)) return;
  auto kind = core::StrategyKindFromName(body->strategy);
  if (!kind.ok()) return;
  std::unique_ptr<core::Strategy> strategy =
      core::MakeStrategy(*kind, body->seed);
  // Probe only an open that residency would route inline. A searching
  // open's worker makes the lookup, which must count once.
  if (!RunsInline(FrameType::kOpenSession, strategy.get(),
                  /*resident=*/true)) {
    return;
  }
  work.resident = cache_.FindResident(*work.upload);
  if (work.resident != nullptr) work.strategy = std::move(strategy);
}

void Server::HandleWritable(Connection& conn) {
  const int fd = conn.sock().fd();
  auto flushed = conn.OnWritable();
  if (!flushed.ok()) {
    CloseConn(fd);
    return;
  }
  if (*flushed && conn.close_after_flush()) {
    CloseConn(fd);
  }
}

void Server::ApplyCompletions() {
  std::unique_lock<std::mutex> lock(done_mu_);
  // Most rounds deliver nothing. Return before the batch exists: even an
  // empty deque allocates.
  if (done_.empty()) return;
  std::deque<Completion> batch;
  batch.swap(done_);
  lock.unlock();
  for (auto& c : batch) {
    Connection* conn = Deliver(std::move(c));
    // A frame pipelined behind this one is already buffered, where poll
    // cannot see it.
    if (conn != nullptr && conn->wants_read() && conn->has_buffered_input()) {
      HandleReadable(*conn);
    }
  }
}

Connection* Server::Deliver(Completion c) {
  auto it = conns_.find(c.fd);
  if (it == conns_.end() || it->second->generation() != c.generation) {
    // The connection died while its frame was processing. The session
    // that went out with the frame, or that an open just made, has no
    // owner left: it ends here, and its cache pin drops.
    if (c.session != nullptr) counters_.sessions_aborted.Inc();
    return nullptr;
  }
  Connection& conn = *it->second;
  conn.OnWorkDone(std::move(c.session));
  if (!c.bytes.empty() && !EnqueueOrClose(conn, std::move(c.bytes))) {
    return nullptr;
  }
  if (c.close_after) conn.CloseAfterFlush();
  if (conn.wants_write()) {
    HandleWritable(conn);
  } else if (conn.close_after_flush()) {
    CloseConn(c.fd);
  }
  it = conns_.find(c.fd);
  return it != conns_.end() ? it->second.get() : nullptr;
}

Server::ConnMap::iterator Server::GoodbyeAndClose(ConnMap::iterator it,
                                                  const util::Status& status) {
  Connection& conn = *it->second;
  conn.Enqueue(ErrorFrame(status, /*will_close=*/true));
  (void)conn.OnWritable();  // Best effort; the close is unconditional.
  return CloseConn(it);
}

void Server::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it != conns_.end()) CloseConn(it);
}

Server::ConnMap::iterator Server::CloseConn(ConnMap::iterator it) {
  // A session the connection holds dies with it (a session out with a
  // frame ends when its completion finds the connection gone).
  if (it->second->session() != nullptr) counters_.sessions_aborted.Inc();
  it = conns_.erase(it);
  counters_.connections_open.Set(static_cast<int64_t>(conns_.size()));
  return it;
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

void Server::WorkerLoop() {
  while (true) {
    Work work;
    {
      std::unique_lock<std::mutex> lock(work_mu_);
      work_cv_.wait(lock, [this] { return workers_done_ || !work_.empty(); });
      if (work_.empty()) return;  // workers_done_
      work = std::move(work_.front());
      work_.pop_front();
      counters_.pending_work.Set(static_cast<int64_t>(work_.size()));
    }
    // Queue-wait span: enqueue on the event thread → claim here. Recorded
    // from the timestamps already taken, not a ScopedSpan, because the
    // waiting happened on no one's stack.
    const uint64_t now = util::SystemClock()->NowNanos();
    obs::RecordSpan(obs::SpanKind::kFrameQueue,
                    work.session != nullptr ? work.session->trace_id() : 0,
                    work.enqueue_nanos,
                    now > work.enqueue_nanos ? now - work.enqueue_nanos : 0,
                    static_cast<uint64_t>(work.frame.type),
                    &ServerMetrics::Get().frame_queue_nanos);
    Completion done = HandleFrame(std::move(work));
    {
      std::lock_guard<std::mutex> lock(done_mu_);
      done_.push_back(std::move(done));
    }
    wake_.Notify();
  }
}

Server::Completion Server::HandleFrame(Work work) {
  Completion c;
  c.fd = work.fd;
  c.generation = work.generation;
  c.session = std::move(work.session);
  const Frame& frame = work.frame;
  obs::ScopedSpan execute_span(
      obs::SpanKind::kFrameExecute,
      c.session != nullptr ? c.session->trace_id() : 0,
      &ServerMetrics::Get().frame_execute_nanos);
  execute_span.set_detail(static_cast<uint64_t>(frame.type));
  switch (frame.type) {
    case FrameType::kOpenSession:
      HandleOpenSession(work, c);
      break;
    case FrameType::kNextQuestion:
      HandleNextQuestion(frame, c);
      break;
    case FrameType::kAnswer:
      HandleAnswer(frame, c);
      break;
    case FrameType::kCloseSession:
      HandleCloseSession(frame, c);
      break;
    case FrameType::kMetrics:
      HandleMetrics(frame, c);
      break;
    case FrameType::kOpenOk:
    case FrameType::kQuestion:
    case FrameType::kCloseOk:
    case FrameType::kError:
    case FrameType::kMetricsOk:
      JINFER_CHECK(false,
                   "response frame type 0x%02x past HandleReadable's "
                   "IsRequestType filter",
                   static_cast<unsigned>(frame.type));
      break;
  }
  return c;
}

void Server::HandleOpenSession(Work& work, Completion& c) {
  if (work.resident != nullptr) {
    // A repeat upload, found resident by ProbeOpen: nothing to parse,
    // fingerprint or build.
    return StartSession(std::move(work.resident), runtime::IndexTier::kMemory,
                        std::move(work.strategy), c);
  }
  auto body =
      DecodeOpenSession(std::span<const uint8_t>(work.frame.payload));
  if (!body.ok()) return RejectFrame(c, body.status());
  if (c.session != nullptr) {
    c.bytes = ErrorFrame(util::Status::FailedPrecondition(
        "a session is already open on this connection"));
    return;
  }
  if (draining_.load(std::memory_order_acquire)) {
    c.bytes = ErrorFrame(
        util::Status::Unavailable("server is draining; retry elsewhere"));
    return;
  }
  auto kind = core::StrategyKindFromName(body->strategy);
  if (!kind.ok()) {
    c.bytes = ErrorFrame(kind.status());
    return;
  }
  const bool server_compress = cache_.options().build.compress;
  if ((body->compress != 0) != server_compress) {
    c.bytes = ErrorFrame(
        util::Status::InvalidArgument(util::StrFormat(
            "this server builds indexes with compress=%d; reopen with the "
            "matching flag",
            server_compress ? 1 : 0)));
    return;
  }
  auto r = rel::ReadRelationCsvText(
      body->r_csv, body->r_name.empty() ? "R" : body->r_name);
  if (!r.ok()) {
    c.bytes = ErrorFrame(r.status());
    return;
  }
  auto p = rel::ReadRelationCsvText(
      body->p_csv, body->p_name.empty() ? "P" : body->p_name);
  if (!p.ok()) {
    c.bytes = ErrorFrame(p.status());
    return;
  }

  // The upload's digest becomes the index's alias, so the next
  // byte-identical upload opens inline.
  auto tiered = cache_.GetOrBuildTiered(*r, *p, work.upload);
  if (!tiered.ok()) {
    // A transient cache fault goes out RETRY_LATER: "try again later",
    // not "you did something wrong".
    c.bytes = ErrorFrame(tiered.status());
    return;
  }
  StartSession(std::move(tiered->index), tiered->tier,
               core::MakeStrategy(*kind, body->seed), c);
}

void Server::StartSession(std::shared_ptr<const core::SignatureIndex> index,
                          runtime::IndexTier tier,
                          std::unique_ptr<core::Strategy> strategy,
                          Completion& c) {
  OpenOkBody ok;
  ok.session_id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
  ok.num_classes = index->num_classes();
  ok.num_tuples = index->num_tuples();
  ok.index_tier = static_cast<uint8_t>(tier);
  // The server never reads a session's Result(): every interaction's
  // question and answer already crossed the wire, so a transcript kept
  // here would only grow with the session.
  c.session = std::make_unique<runtime::Session>(
      std::move(index), std::move(strategy),
      runtime::SessionOptions{.record_trace = false});
  // The wire id is also the trace id, so a ring snapshot can be filtered
  // to this tenant.
  c.session->set_trace_id(ok.session_id);
  counters_.sessions_opened.Inc();
  ok.question = AskNext(c);
  c.bytes = EncodeFrame(FrameType::kOpenOk, Encode(ok));
}

QuestionBody Server::AskNext(Completion& c) {
  runtime::Session& s = *c.session;
  QuestionBody q;
  q.session_id = s.trace_id();
  const std::optional<core::ClassId> next = s.NextQuestion();
  q.num_interactions = s.num_interactions();
  PredicateToWords(s.CurrentPredicate(), q.predicate_words);
  if (next.has_value()) {
    q.class_id = *next;
    const core::SignatureClass& cls = s.index().cls(*next);
    q.rep_r = cls.rep_r;
    q.rep_p = cls.rep_p;
  } else {
    q.finished = 1;
    EndSession(c);
  }
  return q;
}

void Server::EndSession(Completion& c) {
  c.session.reset();  // The connection gets none back.
  counters_.sessions_closed.Inc();
}

void Server::HandleNextQuestion(const Frame& frame, Completion& c) {
  auto body = DecodeNextQuestion(std::span<const uint8_t>(frame.payload));
  if (util::Status owned = CheckOwned(body, c.session.get()); !owned.ok()) {
    return RejectFrame(c, owned);
  }
  c.bytes = EncodeFrame(FrameType::kQuestion, Encode(AskNext(c)));
}

void Server::HandleAnswer(const Frame& frame, Completion& c) {
  auto body = DecodeAnswer(std::span<const uint8_t>(frame.payload));
  if (util::Status owned = CheckOwned(body, c.session.get()); !owned.ok()) {
    return RejectFrame(c, owned);
  }
  const util::Status applied = c.session->Answer(
      body->label != 0 ? core::Label::kPositive : core::Label::kNegative);
  if (!applied.ok()) {
    // InconsistentSample: the session state is untouched and the question
    // stays pending — report and carry on.
    c.bytes = ErrorFrame(applied);
    return;
  }
  c.bytes = EncodeFrame(FrameType::kQuestion, Encode(AskNext(c)));
}

void Server::HandleCloseSession(const Frame& frame, Completion& c) {
  auto body =
      DecodeCloseSession(std::span<const uint8_t>(frame.payload));
  if (util::Status owned = CheckOwned(body, c.session.get()); !owned.ok()) {
    return RejectFrame(c, owned);
  }
  CloseOkBody ok;
  ok.session_id = body->session_id;
  ok.num_interactions = c.session->num_interactions();
  PredicateToWords(c.session->CurrentPredicate(), ok.predicate_words);
  EndSession(c);
  c.bytes = EncodeFrame(FrameType::kCloseOk, Encode(ok));
}

void Server::HandleMetrics(const Frame& frame, Completion& c) {
  auto body = DecodeMetrics(std::span<const uint8_t>(frame.payload));
  if (!body.ok()) return RejectFrame(c, body.status());
  MetricsOkBody ok;
  ok.text = obs::RenderPrometheusText();
  c.bytes = EncodeFrame(FrameType::kMetricsOk, Encode(ok));
}

}  // namespace server
}  // namespace jinfer
