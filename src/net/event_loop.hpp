// Readiness notification for the single-threaded server: a
// level-triggered fd watcher with two interchangeable backends — epoll on
// Linux (O(ready) wakeups at high connection counts) and portable poll()
// everywhere else. Level-triggered semantics are deliberate: the server
// may legally stop reading a ready connection (backpressure pause) and
// rely on the next wait() reporting it ready again; edge-triggered would
// force exhaustive drains and starve the shed/drain bookkeeping between
// reads.
//
// Setting CAS_NET_BACKEND=poll in the environment forces the poll backend
// on Linux too — CI runs the wire tests both ways.
//
// Wakeup is the cross-thread nudge: solver coordinator threads complete
// requests off-loop and must pull the loop out of wait(); notify() is a
// single write() on an eventfd (pipe fallback), making it safe from any
// thread and from signal handlers — which is exactly how SIGTERM-triggered
// graceful drain reaches the loop.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

namespace cas::net {

struct Event {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  /// Peer hangup or socket error — the fd should be serviced (a final
  /// read usually observes EOF) and closed.
  bool hangup = false;
};

class EventLoop {
 public:
  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  void add(int fd, bool want_read, bool want_write);
  void modify(int fd, bool want_read, bool want_write);
  void remove(int fd);

  /// Block up to timeout_ms (-1 = indefinitely) and fill `events` with
  /// ready fds. Returns the event count (0 on timeout). EINTR returns 0.
  int wait(std::vector<Event>& events, int timeout_ms);

  [[nodiscard]] const char* backend() const { return epoll_fd_ >= 0 ? "epoll" : "poll"; }

 private:
  int epoll_fd_ = -1;  // -1 => poll backend

  // poll backend state: dense interest set + fd -> index map.
  struct PollFdRec {
    int fd;
    short events;
  };
  std::vector<PollFdRec> poll_set_;
  std::unordered_map<int, size_t> poll_index_;
};

/// Cross-thread (and async-signal-safe) loop wakeup. Register read_fd()
/// with the loop; notify() from anywhere; drain() when it polls readable.
class Wakeup {
 public:
  Wakeup();
  ~Wakeup();
  Wakeup(const Wakeup&) = delete;
  Wakeup& operator=(const Wakeup&) = delete;

  [[nodiscard]] int read_fd() const { return read_fd_; }
  /// One write() syscall — callable from signal handlers.
  void notify() noexcept;
  void drain() noexcept;

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;  // == read_fd_ for eventfd, pipe write end otherwise
};

}  // namespace cas::net
