#include "net/event_loop.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "util/strings.hpp"

#if defined(__linux__)
#include <sys/epoll.h>
#include <sys/eventfd.h>
#define CAS_NET_HAVE_EPOLL 1
#else
#define CAS_NET_HAVE_EPOLL 0
#endif

namespace cas::net {

namespace {

bool force_poll_backend() {
  const char* env = std::getenv("CAS_NET_BACKEND");
  return env != nullptr && std::strcmp(env, "poll") == 0;
}

short to_poll_events(bool want_read, bool want_write) {
  short ev = 0;
  if (want_read) ev |= POLLIN;
  if (want_write) ev |= POLLOUT;
  return ev;
}

#if CAS_NET_HAVE_EPOLL
uint32_t to_epoll_events(bool want_read, bool want_write) {
  uint32_t ev = 0;  // level-triggered by default (no EPOLLET)
  if (want_read) ev |= EPOLLIN;
  if (want_write) ev |= EPOLLOUT;
  return ev;
}
#endif

}  // namespace

EventLoop::EventLoop() {
#if CAS_NET_HAVE_EPOLL
  if (!force_poll_backend()) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0)
      throw std::runtime_error(util::strf("epoll_create1: %s", std::strerror(errno)));
  }
#endif
}

EventLoop::~EventLoop() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::add(int fd, bool want_read, bool want_write) {
#if CAS_NET_HAVE_EPOLL
  if (epoll_fd_ >= 0) {
    epoll_event ev{};
    ev.events = to_epoll_events(want_read, want_write);
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0)
      throw std::runtime_error(util::strf("epoll_ctl add fd %d: %s", fd, std::strerror(errno)));
    return;
  }
#endif
  if (poll_index_.count(fd)) throw std::runtime_error(util::strf("EventLoop: fd %d re-added", fd));
  poll_index_[fd] = poll_set_.size();
  poll_set_.push_back({fd, to_poll_events(want_read, want_write)});
}

void EventLoop::modify(int fd, bool want_read, bool want_write) {
#if CAS_NET_HAVE_EPOLL
  if (epoll_fd_ >= 0) {
    epoll_event ev{};
    ev.events = to_epoll_events(want_read, want_write);
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0)
      throw std::runtime_error(util::strf("epoll_ctl mod fd %d: %s", fd, std::strerror(errno)));
    return;
  }
#endif
  auto it = poll_index_.find(fd);
  if (it == poll_index_.end())
    throw std::runtime_error(util::strf("EventLoop: modify of unwatched fd %d", fd));
  poll_set_[it->second].events = to_poll_events(want_read, want_write);
}

void EventLoop::remove(int fd) {
#if CAS_NET_HAVE_EPOLL
  if (epoll_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);  // best-effort
    return;
  }
#endif
  auto it = poll_index_.find(fd);
  if (it == poll_index_.end()) return;
  const size_t idx = it->second;
  const size_t last = poll_set_.size() - 1;
  if (idx != last) {
    poll_set_[idx] = poll_set_[last];
    poll_index_[poll_set_[idx].fd] = idx;
  }
  poll_set_.pop_back();
  poll_index_.erase(it);
}

int EventLoop::wait(std::vector<Event>& events, int timeout_ms) {
  events.clear();
#if CAS_NET_HAVE_EPOLL
  if (epoll_fd_ >= 0) {
    epoll_event ready[64];
    const int n = ::epoll_wait(epoll_fd_, ready, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) return 0;
      throw std::runtime_error(util::strf("epoll_wait: %s", std::strerror(errno)));
    }
    events.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      Event e;
      e.fd = ready[i].data.fd;
      e.readable = (ready[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0;
      e.writable = (ready[i].events & EPOLLOUT) != 0;
      e.hangup = (ready[i].events & (EPOLLHUP | EPOLLERR | EPOLLRDHUP)) != 0;
      events.push_back(e);
    }
    return n;
  }
#endif
  std::vector<pollfd> pfds;
  pfds.reserve(poll_set_.size());
  for (const auto& rec : poll_set_) pfds.push_back({rec.fd, rec.events, 0});
  const int n = ::poll(pfds.data(), pfds.size(), timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return 0;
    throw std::runtime_error(util::strf("poll: %s", std::strerror(errno)));
  }
  for (const auto& p : pfds) {
    if (p.revents == 0) continue;
    Event e;
    e.fd = p.fd;
    e.readable = (p.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
    e.writable = (p.revents & POLLOUT) != 0;
    e.hangup = (p.revents & (POLLHUP | POLLERR | POLLNVAL)) != 0;
    events.push_back(e);
  }
  return static_cast<int>(events.size());
}

Wakeup::Wakeup() {
#if CAS_NET_HAVE_EPOLL
  const int efd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (efd >= 0) {
    read_fd_ = write_fd_ = efd;
    return;
  }
#endif
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error(util::strf("pipe: %s", std::strerror(errno)));
  ::fcntl(fds[0], F_SETFL, ::fcntl(fds[0], F_GETFL, 0) | O_NONBLOCK);
  ::fcntl(fds[1], F_SETFL, ::fcntl(fds[1], F_GETFL, 0) | O_NONBLOCK);
  read_fd_ = fds[0];
  write_fd_ = fds[1];
}

Wakeup::~Wakeup() {
  if (read_fd_ >= 0) ::close(read_fd_);
  if (write_fd_ >= 0 && write_fd_ != read_fd_) ::close(write_fd_);
}

void Wakeup::notify() noexcept {
  const uint64_t one = 1;
  // A full pipe/eventfd already guarantees a pending wakeup; EAGAIN is
  // success. write() is async-signal-safe — SIGTERM drain rides this.
  [[maybe_unused]] ssize_t rc = ::write(write_fd_, &one, sizeof(one));
}

void Wakeup::drain() noexcept {
  uint64_t buf[32];
  while (::read(read_fd_, buf, sizeof(buf)) > 0) {
  }
}

}  // namespace cas::net
