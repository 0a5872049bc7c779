// Minimal RAII socket layer for the serving front end (DESIGN.md §11).
//
// Everything here is a thin, errno-honest wrapper over POSIX sockets:
// failures surface through the library's error taxonomy via
// util::IoStatusFromErrno, so resource pressure (EMFILE, ENFILE, ENOMEM,
// EAGAIN on a blocking call that timed out) classifies as kUnavailable —
// the transient, retry-with-backoff class — while genuine I/O breakage
// (ECONNRESET, EPIPE, bad fd) stays a permanent kIoError. The server's
// connection lifecycle logic (src/server/) is written entirely against
// these Status values; it never inspects errno itself.
//
// Socket owns the fd (move-only, closed on destruction). The nonblocking
// helpers return how much was transferred and kUnavailable for
// EAGAIN/EWOULDBLOCK, which the poll loop treats as "try again when poll
// says so". WakePipe is the self-pipe that lets signal handlers and worker
// threads interrupt a poll() sleep: Notify() is a single write(), which is
// async-signal-safe, so a SIGTERM handler may call it directly.

#ifndef JINFER_UTIL_SOCKET_H_
#define JINFER_UTIL_SOCKET_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "util/result.h"
#include "util/status.h"

namespace jinfer {
namespace util {

/// Move-only owner of a file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Closes the fd now (idempotent).
  void Close();

 private:
  int fd_ = -1;
};

/// A parsed "host:port" endpoint. Parse fails on a missing/garbage port.
struct Endpoint {
  std::string host;
  uint16_t port = 0;
};
Result<Endpoint> ParseEndpoint(const std::string& spec);

/// Creates a nonblocking listening TCP socket bound to host:port
/// (SO_REUSEADDR set; port 0 binds an ephemeral port — read it back with
/// BoundPort). IPv4 only: the serving front end binds loopback or an
/// explicit address, it is not a name resolver.
Result<Socket> ListenTcp(const std::string& host, uint16_t port,
                         int backlog = 128);

/// The port a bound socket actually listens on (resolves port 0).
Result<uint16_t> BoundPort(const Socket& socket);

/// Accepts one pending connection as a nonblocking socket. kUnavailable
/// when no connection is pending (EAGAIN) — poll again.
Result<Socket> AcceptTcp(const Socket& listener);

/// Blocking client connect to host:port (IPv4 dotted quad or "localhost").
Result<Socket> ConnectTcp(const std::string& host, uint16_t port);

/// Sets the whole-call timeout of a *blocking* socket's recv/send
/// (SO_RCVTIMEO / SO_SNDTIMEO); a timed-out call reports kUnavailable.
/// Zero clears the timeout. Used by the thin client; the server side is
/// nonblocking and enforces deadlines in its poll loop instead.
Status SetIoTimeout(const Socket& socket, std::chrono::milliseconds timeout);

/// Nonblocking read into `buf`. Returns bytes read (> 0), 0 for orderly
/// EOF, kUnavailable for "no data yet", and kIoError for a broken
/// connection (ECONNRESET and friends).
Result<size_t> ReadSome(const Socket& socket, std::span<uint8_t> buf);

/// Nonblocking write of a prefix of `buf`. Returns bytes written (possibly
/// 0 only when buf is empty), kUnavailable for a full kernel buffer, and
/// kIoError for a broken connection. SIGPIPE is suppressed (MSG_NOSIGNAL).
Result<size_t> WriteSome(const Socket& socket, std::span<const uint8_t> buf);

/// Blocking-exact helpers for the client side: read/write the full span or
/// fail (kUnavailable on a SetIoTimeout expiry, kIoError on EOF/breakage).
Status ReadExact(const Socket& socket, std::span<uint8_t> buf);
Status WriteAll(const Socket& socket, std::span<const uint8_t> buf);

/// Self-pipe: lets any thread (or a signal handler) wake a poll() loop.
class WakePipe {
 public:
  /// Creates the pipe; aborts on resource exhaustion (a server that cannot
  /// make a pipe cannot run at all).
  WakePipe();

  /// Async-signal-safe: one write() on the write end. Coalesces naturally
  /// (the read end drains everything).
  void Notify();

  /// Drains pending notifications (nonblocking).
  void Drain();

  int read_fd() const { return read_end_.fd(); }

 private:
  Socket read_end_;
  Socket write_end_;
};

}  // namespace util
}  // namespace jinfer

#endif  // JINFER_UTIL_SOCKET_H_
