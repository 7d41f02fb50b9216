#include "dist/rank_comm.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "net/fault.hpp"
#include "net/frame_io.hpp"
#include "net/retry.hpp"
#include "util/strings.hpp"

namespace cas::dist {

namespace {

double now_seconds() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

/// A rendezvous attempt died on a transient wire fault (reset, refused
/// accept, corrupt frame, connection lost). Retried under backoff by the
/// constructor; never escapes RankComm.
struct RendezvousRetry : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A welcome that simply has not arrived within the per-attempt window:
/// either a wedged stream (re-helloing unwedges it) or a coordinator still
/// assembling the world (re-helloing is a cheap no-op). Unlike a hard
/// fault this consumes no backoff budget — a slow rendezvous paced at one
/// re-hello per window must not exhaust the retry schedule meant for
/// resets; only the overall connect timeout bounds it.
struct AttemptWindowExpired : RendezvousRetry {
  using RendezvousRetry::RendezvousRetry;
};

/// Wait on `cv` until `ready` holds, for at most `seconds`. There is no
/// deadline at 0 or below, nor from 1e9 s (~31 years) up: a span that long
/// overflows the steady clock's nanosecond range and would expire at once.
template <typename Ready>
void wait_within(std::condition_variable& cv, std::unique_lock<std::mutex>& lock, double seconds,
                 Ready ready) {
  if (seconds > 0 && seconds < 1e9)
    cv.wait_for(lock, std::chrono::duration<double>(seconds), ready);
  else
    cv.wait(lock, ready);
}

}  // namespace

RankComm::RankComm(RankCommOptions opts)
    : opts_(std::move(opts)), decoder_(opts_.max_frame_bytes) {
  const std::string kind = frame_type(opts_.handshake);
  if (!opts_.handshake.is_null() && kind != "join" && kind != "reconnect")
    throw CommError("rank_comm: a late handshake is a join or a reconnect frame");
  const bool late = !kind.empty();
  if (!late && (opts_.rank < 0 || opts_.rank >= opts_.ranks))
    throw CommError(util::strf("rank_comm: rank %d outside world of %d", opts_.rank, opts_.ranks));
  const int member = kind == "reconnect" ? frame_int(opts_.handshake, "rank")
                                         : (late ? -1 : opts_.rank);
  rank_.store(late ? -1 : opts_.rank, std::memory_order_release);
  ranks_.store(late ? 0 : opts_.ranks, std::memory_order_release);
  member_.store(member, std::memory_order_release);

  // The whole rendezvous — connect, handshake, await welcome — retries
  // under bounded backoff when an attempt dies on a transient wire fault:
  // a rank whose hello is reset re-runs the handshake instead of aborting
  // the launch (the coordinator re-welcomes and replays what it sent in
  // the meantime — see Coordinator::handle_frame's re-hello path).
  const double deadline = now_seconds() + opts_.connect_timeout_seconds;
  net::Backoff backoff(opts_.rendezvous_backoff,
                       static_cast<uint64_t>(kind == "reconnect" ? member + 0x20000 : opts_.rank) +
                           (kind == "join" ? 0x10000u : 1u));
  for (;;) {
    try {
      const double attempt_deadline =
          opts_.rendezvous_attempt_seconds > 0
              ? std::min(deadline, now_seconds() + opts_.rendezvous_attempt_seconds)
              : deadline;
      rendezvous_once(deadline, attempt_deadline);
      break;
    } catch (const RendezvousRetry& e) {
      fd_.reset();
      // The failed attempt may have left a partial (or poisoned) frame
      // buffered; the next attempt starts from a clean stream.
      decoder_ = net::FrameDecoder(opts_.max_frame_bytes);
      const bool quiet_window = dynamic_cast<const AttemptWindowExpired*>(&e) != nullptr;
      if (!net::retry_enabled() || now_seconds() >= deadline ||
          (!quiet_window && backoff.exhausted()))
        throw CommError(util::strf("rank_comm: rendezvous failed after %d attempt(s): %s",
                                   backoff.attempts() + 1, e.what()));
      rendezvous_retries_.fetch_add(1, std::memory_order_relaxed);
      // Hard faults pace under backoff; quiet windows are already paced by
      // the window itself and retry immediately.
      if (!quiet_window) backoff.sleep();
    }
  }

  // The first heartbeat goes out now, not one interval later: it proves
  // the welcome landed, so the coordinator stops holding this member's
  // slot for a re-hello and evicts it at once if it dies.
  try {
    std::scoped_lock lock(send_mu_);
    send_frame_locked_throw(make_hb(member_.load(std::memory_order_acquire)));
  } catch (const CommError&) {
    // fail() already ran; the reader sees the dead socket.
  }
  reader_ = std::thread([this] { reader_body(); });
  if (opts_.heartbeat_interval_seconds > 0)
    heartbeat_ = std::thread([this] { heartbeat_body(); });
}

void RankComm::rendezvous_once(double deadline, double attempt_deadline) {
  // Connect with retry: sibling processes race the coordinator's bind. A
  // late member dials a world that is already up, so a refusal there
  // means the coordinator is gone.
  const bool fail_fast = !opts_.handshake.is_null();
  std::string err;
  for (;;) {
    fd_ = net::connect_tcp(opts_.host, opts_.port, err);
    if (fd_.valid()) break;
    if (fail_fast || now_seconds() >= deadline)
      throw CommError(util::strf("rank_comm: cannot reach coordinator %s:%u: %s",
                                 opts_.host.c_str(), unsigned{opts_.port}, err.c_str()));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  net::set_nodelay(fd_.get());

  // The handshake, then block (deadline-bounded) until welcome — the
  // rendezvous. Runs on the caller's thread with the same decoder the
  // reader thread inherits afterwards, so bytes coalesced behind the
  // welcome frame are not lost. Sends go through write_all directly (NOT
  // send_frame_locked_throw): a transient send failure here must stay
  // retryable instead of poisoning the communicator via fail().
  {
    util::Json hs = opts_.handshake.is_null() ? make_hello(opts_.rank, opts_.ranks)
                                              : opts_.handshake;
    if (!opts_.failover_addr.empty()) hs["failover"] = opts_.failover_addr;
    const std::string frame = net::encode_frame(hs.dump(0));
    std::string send_err;
    if (!net::write_all(fd_.get(), frame, send_err))
      throw RendezvousRetry("hello send failed: " + send_err);
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(frame.size(), std::memory_order_relaxed);
  }
  bool welcomed = false;
  std::string payload;
  while (!welcomed) {
    for (bool more = true; more && !welcomed;) {
      switch (decoder_.next(payload)) {
        case net::FrameDecoder::Result::kFrame: {
          util::Json j;
          try {
            j = util::Json::parse(payload);
          } catch (const std::exception& e) {
            // A corrupted frame that still decodes as a frame: retryable.
            throw RendezvousRetry(util::strf("bad frame during rendezvous: %s", e.what()));
          }
          const std::string type = frame_type(j);
          if (type == "welcome") {
            welcomed = true;
            if (!opts_.handshake.is_null()) {
              // The coordinator assigned (join) or echoed (reconnect) our
              // member id; the dense rank arrives with a rebalance frame.
              member_.store(frame_int(j, "rank"), std::memory_order_release);
              ranks_.store(frame_int(j, "ranks"), std::memory_order_release);
            }
          } else if (type == "abort") {
            // Deliberate refusal (version/rank/key mismatch, world closed):
            // permanent, never retried.
            const util::Json* r = j.find("reason");
            throw CommError(r != nullptr && r->is_string() ? r->as_string()
                                                           : "rendezvous aborted");
          } else {
            // The coordinator sends nothing but welcome or abort before our
            // welcome. Anything else is a frame whose type a wire fault
            // mangled — the bytes behind it cannot be trusted; start over
            // on a fresh connection.
            throw RendezvousRetry("unexpected '" + type + "' frame during rendezvous");
          }
          break;
        }
        case net::FrameDecoder::Result::kNeedMore:
          more = false;
          break;
        case net::FrameDecoder::Result::kError:
          throw RendezvousRetry("protocol error during rendezvous: " + decoder_.error());
      }
    }
    if (welcomed) break;
    const double remain = deadline - now_seconds();
    if (remain <= 0)
      throw CommError(util::strf("rank_comm: rendezvous timed out (rank %d of %d)", opts_.rank,
                                 opts_.ranks));
    const double attempt_remain = attempt_deadline - now_seconds();
    if (attempt_remain <= 0)
      // No welcome and no error either — a wedged stream (corrupted length
      // prefix, mangled frame) or a coordinator still waiting on
      // stragglers. Re-helloing is cheap and unwedges the former.
      throw AttemptWindowExpired("no welcome within the attempt window");
    pollfd pfd{fd_.get(), POLLIN, 0};
    const int rc =
        ::poll(&pfd, 1, static_cast<int>(std::min(remain, attempt_remain) * 1000) + 1);
    if (rc < 0 && errno != EINTR)
      throw RendezvousRetry(util::strf("poll: %s", std::strerror(errno)));
    if (rc <= 0) continue;
    char buf[16384];
    const ssize_t n = net::fault_recv(fd_.get(), buf, sizeof(buf), 0);
    if (n == 0) throw RendezvousRetry("coordinator closed during rendezvous");
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      throw RendezvousRetry(util::strf("recv: %s", std::strerror(errno)));
    }
    bytes_received_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
    decoder_.feed(buf, static_cast<size_t>(n));
  }
}

RankComm::~RankComm() { finalize(); }

void RankComm::send_frame_locked_throw(const util::Json& j) {
  const std::string frame = net::encode_frame(j.dump(0));
  std::string err;
  if (!net::write_all(fd_.get(), frame, err)) {
    fail("rank_comm: " + err);
    throw CommError(failure());
  }
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(frame.size(), std::memory_order_relaxed);
}

void RankComm::set_view(int rank, int ranks) {
  rank_.store(rank, std::memory_order_release);
  ranks_.store(ranks, std::memory_order_release);
}

void RankComm::send_control(const util::Json& frame) {
  if (failed()) throw CommError(failure());
  std::scoped_lock lock(send_mu_);
  send_frame_locked_throw(frame);
}

void RankComm::on_leader(uint64_t hunt, std::function<void(uint64_t iters, int id)> hook) {
  std::scoped_lock lock(leader_mu_);
  leader_hook_ = std::move(hook);
  hook_hunt_ = hunt;
  if (leader_hook_ && leader_ && leader_hunt_ == hunt) leader_hook_(leader_->first, leader_->second);
}

std::optional<util::Json> RankComm::take_control(double timeout_seconds) {
  std::unique_lock lock(control_mu_);
  wait_within(control_cv_, lock, timeout_seconds,
              [this] { return !control_.empty() || failed(); });
  if (!control_.empty()) {
    util::Json j = std::move(control_.front());
    control_.pop_front();
    return j;
  }
  if (failed()) throw CommError(failure());
  return std::nullopt;
}

void RankComm::hard_kill() {
  bool expected = false;
  if (!finalized_.compare_exchange_strong(expected, true)) return;
  stop_threads_.store(true, std::memory_order_release);
  hb_cv_.notify_all();
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);  // FIN, no bye — looks killed
  if (reader_.joinable()) reader_.join();
  if (heartbeat_.joinable()) heartbeat_.join();
  fail("rank_comm: hard-killed (fault injection)");
  std::scoped_lock lock(send_mu_);  // an elastic crew worker may be sending
  fd_.reset();
}

void RankComm::inject_disconnect() {
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
}

void RankComm::fail(const std::string& reason) {
  {
    std::scoped_lock lock(failure_mu_);
    if (failed_.load(std::memory_order_acquire)) return;
    failure_ = reason;
    failed_.store(true, std::memory_order_release);
  }
  // Take the waiter's lock before notifying, so a take_control that checked
  // failed() just before it flipped cannot miss the wakeup.
  {
    std::scoped_lock lock(control_mu_);
  }
  control_cv_.notify_all();
  // Sever the transport too: a failed communicator that leaves its socket
  // open looks like a live-but-silent member, and the coordinator would
  // only notice at the heartbeat deadline. EOF makes the death visible now.
  // (shutdown, not close — the reader thread still owns the fd.)
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
}

util::Json RankComm::latest_state_sync() const {
  std::scoped_lock lock(state_sync_mu_);
  return state_sync_;
}

std::string RankComm::failure() const {
  std::scoped_lock lock(failure_mu_);
  return failure_.empty() ? "rank_comm: communicator failed" : failure_;
}

/// Consume every complete frame currently buffered in the decoder. Returns
/// false when the communicator failed (the reader must exit).
bool RankComm::drain_decoder() {
  std::string payload;
  for (bool more = true; more;) {
    switch (decoder_.next(payload)) {
      case net::FrameDecoder::Result::kFrame: {
        frames_received_.fetch_add(1, std::memory_order_relaxed);
        util::Json j;
        try {
          j = util::Json::parse(payload);
        } catch (const std::exception& e) {
          fail(util::strf("rank_comm: bad frame from coordinator: %s", e.what()));
          return false;
        }
        const std::string type = frame_type(j);
        if (type == "abort") {
          const util::Json* r = j.find("reason");
          fail(r != nullptr && r->is_string() ? r->as_string() : "aborted by coordinator");
          return false;
        } else if (type == "leader") {
          uint64_t hunt = 0, iters = 0, id = 0;
          try {
            hunt = frame_u64(j, "hunt");
            iters = frame_u64(j, "iters");
            id = frame_u64(j, "id");
          } catch (const CommError& e) {
            fail(util::strf("rank_comm: malformed leader frame: %s", e.what()));
            return false;
          }
          std::scoped_lock lock(leader_mu_);
          if (hunt < leader_hunt_) break;  // a finished hunt's leader
          const std::pair<uint64_t, int> got{iters, static_cast<int>(id)};
          if (hunt > leader_hunt_) leader_.reset();
          leader_hunt_ = hunt;
          if (!leader_ || got < *leader_) leader_ = got;
          if (leader_hook_ && hook_hunt_ == hunt) leader_hook_(got.first, got.second);
        } else if (type == "rebalance") {
          {
            std::scoped_lock lock(control_mu_);
            control_.push_back(std::move(j));
          }
          control_cv_.notify_all();
        } else if (type == "welcome") {
          // A member answered with a hunt's outcome, or waiting for the next
          // hunt, is admitted with its new member id ahead of the rebalance.
          try {
            member_.store(frame_int(j, "rank"), std::memory_order_release);
          } catch (const CommError& e) {
            fail(util::strf("rank_comm: malformed welcome: %s", e.what()));
            return false;
          }
        } else if (type == "state_sync") {
          // We are the elected standby: keep only the newest replicated
          // state — promotion reads it after the communicator fails.
          std::scoped_lock lock(state_sync_mu_);
          state_sync_ = std::move(j);
        }
        // unknown types: ignored.
        break;
      }
      case net::FrameDecoder::Result::kNeedMore:
        more = false;
        break;
      case net::FrameDecoder::Result::kError:
        fail("rank_comm: protocol error: " + decoder_.error());
        return false;
    }
  }
  return true;
}

void RankComm::reader_body() {
  // Drain first: the rendezvous may have left frames coalesced behind the
  // welcome sitting fully buffered in the decoder, and no further bytes
  // need ever arrive to complete them.
  if (!drain_decoder()) return;
  while (!stop_threads_.load(std::memory_order_acquire)) {
    pollfd pfd{fd_.get(), POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 200);
    if (rc < 0) {
      if (errno == EINTR) continue;
      fail(util::strf("rank_comm: poll: %s", std::strerror(errno)));
      return;
    }
    if (rc == 0) continue;
    char buf[16384];
    const ssize_t n = net::fault_recv(fd_.get(), buf, sizeof(buf), 0);
    if (n == 0) {
      if (!finalized_.load(std::memory_order_acquire))
        fail("rank_comm: coordinator closed the connection");
      return;
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      if (!finalized_.load(std::memory_order_acquire))
        fail(util::strf("rank_comm: recv: %s", std::strerror(errno)));
      return;
    }
    bytes_received_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
    decoder_.feed(buf, static_cast<size_t>(n));
    if (!drain_decoder()) return;
  }
}

void RankComm::heartbeat_body() {
  const auto interval = std::chrono::duration<double>(opts_.heartbeat_interval_seconds);
  std::unique_lock lock(hb_mu_);
  while (!stop_threads_.load(std::memory_order_acquire)) {
    hb_cv_.wait_for(lock, interval,
                    [this] { return stop_threads_.load(std::memory_order_acquire); });
    if (stop_threads_.load(std::memory_order_acquire)) return;
    if (failed()) return;
    const util::Json frame = make_hb(member());
    std::scoped_lock send_lock(send_mu_);
    try {
      send_frame_locked_throw(frame);
    } catch (const CommError&) {
      return;  // fail() already ran
    }
  }
}

void RankComm::finalize() {
  bool expected = false;
  if (!finalized_.compare_exchange_strong(expected, true)) return;
  if (!failed() && fd_.valid()) {
    // Best-effort clean detach; the coordinator counts byes.
    std::scoped_lock lock(send_mu_);
    try {
      send_frame_locked_throw(make_bye(member()));
    } catch (const CommError&) {
    }
  }
  stop_threads_.store(true, std::memory_order_release);
  hb_cv_.notify_all();
  // Shut the read side so the reader's poll sees EOF now instead of at its
  // next timeout; the bye above is already on the wire.
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RD);
  if (reader_.joinable()) reader_.join();
  if (heartbeat_.joinable()) heartbeat_.join();
  fd_.reset();
}

util::Json RankComm::stats_json() const {
  util::Json j = util::Json::object();
  j["rank"] = rank();
  j["ranks"] = size();
  j["member"] = member();
  j["frames_sent"] = frames_sent_.load(std::memory_order_relaxed);
  j["bytes_sent"] = bytes_sent_.load(std::memory_order_relaxed);
  j["frames_received"] = frames_received_.load(std::memory_order_relaxed);
  j["bytes_received"] = bytes_received_.load(std::memory_order_relaxed);
  j["rendezvous_retries"] = rendezvous_retries_.load(std::memory_order_relaxed);
  return j;
}

}  // namespace cas::dist
