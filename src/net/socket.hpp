// Thin POSIX socket helpers shared by the server, the load driver, and the
// wire tests: RAII fd ownership, IPv4 listen/connect, non-blocking mode —
// plus BlockingClient, a deliberately simple synchronous peer (blocking
// connect, frame-decoded receive with a poll() deadline) so tests and
// cas_load exercise the event-loop server from the outside without
// depending on the code under test. BlockingClient is also the receive
// path of a distributed member's communicator (dist::RankComm): its
// rendezvous and its reader thread both receive through recv_frame.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "net/frame.hpp"
#include "net/retry.hpp"
#include "util/json.hpp"

namespace cas::net {

/// Move-only owning file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  /// Transfer ownership out.
  int release() {
    int f = fd_;
    fd_ = -1;
    return f;
  }
  /// Close now (idempotent).
  void reset();

 private:
  int fd_ = -1;
};

/// Bind + listen on host:port (IPv4 dotted quad or "localhost"; port 0
/// picks an ephemeral port — read it back with local_port). Returns an
/// invalid Fd and sets `err` on failure. SO_REUSEADDR is set.
Fd listen_tcp(const std::string& host, uint16_t port, int backlog, std::string& err);

/// Blocking connect to host:port. Invalid Fd + `err` on failure.
Fd connect_tcp(const std::string& host, uint16_t port, std::string& err);

/// The port a bound socket actually landed on (resolves port-0 binds).
[[nodiscard]] uint16_t local_port(int fd);

bool set_nonblocking(int fd, bool nonblocking);
void set_nodelay(int fd);

/// Synchronous length-prefixed-JSON peer for tests and the load driver.
/// Not thread-safe; one request/response conversation per instance,
/// though callers may pipeline (send several frames, then read replies).
class BlockingClient {
 public:
  BlockingClient() = default;
  explicit BlockingClient(size_t max_frame) : decoder_(max_frame) {}

  /// Connect (blocking). False + error() on failure. Resets the frame
  /// decoder, so a client instance can be reconnected after a failure.
  bool connect(const std::string& host, uint16_t port);

  /// connect() under bounded exponential backoff with deterministic seeded
  /// jitter (salt separates streams of concurrent clients). Honors
  /// CAS_FAULT_NO_RETRY (then: a single attempt).
  bool connect_with_retry(const std::string& host, uint16_t port,
                          const BackoffOptions& backoff_opts = {}, uint64_t salt = 0);

  /// Frame the payload and write it fully (blocking).
  bool send_text(std::string_view payload);
  bool send_json(const util::Json& j) { return send_text(j.dump(0)); }

  /// Next frame payload, waiting up to timeout_seconds for bytes.
  /// nullopt on timeout, clean EOF, or error (error() distinguishes:
  /// empty = timeout or EOF — eof() tells which).
  std::optional<std::string> recv_frame(double timeout_seconds);
  /// recv_frame + parse; a frame that fails to parse sets error().
  std::optional<util::Json> recv_json(double timeout_seconds);

  void close() { fd_.reset(); }

  [[nodiscard]] bool connected() const { return fd_.valid(); }
  [[nodiscard]] int fd() const { return fd_.get(); }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] bool eof() const { return eof_; }
  /// Bytes received over every connection of this client.
  [[nodiscard]] uint64_t bytes_received() const { return bytes_received_; }

 private:
  Fd fd_;
  FrameDecoder decoder_;
  std::string error_;
  bool eof_ = false;
  uint64_t bytes_received_ = 0;
};

}  // namespace cas::net
