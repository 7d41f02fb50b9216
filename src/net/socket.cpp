#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "net/fault.hpp"
#include "net/frame_io.hpp"
#include "net/retry.hpp"
#include "util/strings.hpp"

namespace cas::net {

namespace {

double now_seconds() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

bool resolve_v4(const std::string& host, uint16_t port, sockaddr_in& addr, std::string& err) {
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string h = (host.empty() || host == "localhost") ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, h.c_str(), &addr.sin_addr) != 1) {
    err = util::strf("invalid IPv4 address '%s'", host.c_str());
    return false;
  }
  return true;
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) {
    fault_forget(fd_);  // fd numbers are reused; injected state must not leak
    ::close(fd_);
    fd_ = -1;
  }
}

Fd listen_tcp(const std::string& host, uint16_t port, int backlog, std::string& err) {
  sockaddr_in addr{};
  if (!resolve_v4(host, port, addr, err)) return Fd{};
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    err = util::strf("socket: %s", std::strerror(errno));
    return Fd{};
  }
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    err = util::strf("bind %s:%u: %s", host.c_str(), unsigned{port}, std::strerror(errno));
    return Fd{};
  }
  if (::listen(fd.get(), backlog) != 0) {
    err = util::strf("listen: %s", std::strerror(errno));
    return Fd{};
  }
  return fd;
}

Fd connect_tcp(const std::string& host, uint16_t port, std::string& err) {
  sockaddr_in addr{};
  if (!resolve_v4(host, port, addr, err)) return Fd{};
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    err = util::strf("socket: %s", std::strerror(errno));
    return Fd{};
  }
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    err = util::strf("connect %s:%u: %s", host.c_str(), unsigned{port}, std::strerror(errno));
    return Fd{};
  }
  return fd;
}

uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) return 0;
  return ntohs(addr.sin_port);
}

bool set_nonblocking(int fd, bool nonblocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int next = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, next) == 0;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool BlockingClient::connect(const std::string& host, uint16_t port) {
  error_.clear();
  eof_ = false;
  decoder_ = FrameDecoder(decoder_.max_frame());  // stale bytes from a prior
  fd_ = connect_tcp(host, port, error_);          // connection never carry over
  if (!fd_.valid()) return false;
  set_nodelay(fd_.get());
  return true;
}

bool BlockingClient::connect_with_retry(const std::string& host, uint16_t port,
                                        const BackoffOptions& backoff_opts, uint64_t salt) {
  Backoff backoff(backoff_opts, salt);
  for (;;) {
    if (connect(host, port)) return true;
    if (!retry_enabled() || backoff.exhausted()) {
      error_ = util::strf("connect failed after %d attempt(s): %s", backoff.attempts() + 1,
                          error_.c_str());
      return false;
    }
    backoff.sleep();
  }
}

bool BlockingClient::send_text(std::string_view payload) {
  if (!fd_.valid()) {
    error_ = "send on closed client";
    return false;
  }
  std::string frame;
  try {
    frame = encode_frame(payload);
  } catch (const std::exception& e) {
    error_ = e.what();
    return false;
  }
  return write_all(fd_.get(), frame, error_);
}

std::optional<std::string> BlockingClient::recv_frame(double timeout_seconds) {
  if (!fd_.valid()) {
    error_ = "recv on closed client";
    return std::nullopt;
  }
  error_.clear();
  const double deadline = now_seconds() + timeout_seconds;
  std::string payload;
  for (;;) {
    switch (decoder_.next(payload)) {
      case FrameDecoder::Result::kFrame:
        return payload;
      case FrameDecoder::Result::kError:
        error_ = decoder_.error();
        return std::nullopt;
      case FrameDecoder::Result::kNeedMore:
        break;
    }
    if (eof_) return std::nullopt;  // peer closed mid-conversation
    const double remain = deadline - now_seconds();
    if (remain <= 0) return std::nullopt;  // timeout: error() stays empty
    pollfd pfd{fd_.get(), POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(remain * 1000) + 1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      error_ = util::strf("poll: %s", std::strerror(errno));
      return std::nullopt;
    }
    if (rc == 0) return std::nullopt;  // timeout
    char buf[16384];
    const ssize_t n = fault_recv(fd_.get(), buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      // Spurious readiness (or an injected EAGAIN storm) on a blocking
      // socket: poll again rather than failing the conversation.
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
      error_ = util::strf("recv: %s", std::strerror(errno));
      return std::nullopt;
    }
    if (n == 0) {
      eof_ = true;
      continue;  // drain any frame already buffered
    }
    bytes_received_ += static_cast<uint64_t>(n);
    decoder_.feed(buf, static_cast<size_t>(n));
  }
}

std::optional<util::Json> BlockingClient::recv_json(double timeout_seconds) {
  auto payload = recv_frame(timeout_seconds);
  if (!payload) return std::nullopt;
  try {
    return util::Json::parse(*payload);
  } catch (const std::exception& e) {
    error_ = util::strf("bad JSON frame: %s", e.what());
    return std::nullopt;
  }
}

}  // namespace cas::net
