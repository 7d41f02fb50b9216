#include "dist/rank_comm.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "net/frame_io.hpp"
#include "net/retry.hpp"
#include "util/strings.hpp"

namespace cas::dist {

namespace {

double now_seconds() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

/// How long the reader waits for a frame before it looks at stop_threads_
/// again (finalize also wakes it at once by shutting the read side), unless
/// a heartbeat falls due sooner.
constexpr double kReaderPollSeconds = 0.2;

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

RankComm::RankComm(RankCommOptions opts) : opts_(std::move(opts)) {
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
  // the launch (the coordinator answers a re-hello from its state: the
  // welcome, then the view of the wave in progress — see
  // Coordinator::catch_up).
  const double deadline = now_seconds() + opts_.connect_timeout_seconds;
  net::Backoff backoff(opts_.rendezvous_backoff,
                       static_cast<uint64_t>(kind == "reconnect" ? member + 0x20000 : opts_.rank) +
                           (kind == "join" ? 0x10000u : 1u));
  for (;;) {
    try {
      rendezvous_once(deadline, std::min(deadline, now_seconds() + kRendezvousAttemptSeconds));
      break;
    } catch (const RendezvousRetry& e) {
      // The next attempt reconnects, which also drops any partial (or
      // poisoned) frame the failed one left buffered.
      client_.close();
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
}

void RankComm::rendezvous_once(double deadline, double attempt_deadline) {
  // Connect with retry: sibling processes race the coordinator's bind. A
  // late member dials a world that is already up, so a refusal there
  // means the coordinator is gone.
  const bool fail_fast = !opts_.handshake.is_null();
  while (!client_.connect(opts_.host, opts_.port)) {
    if (fail_fast || now_seconds() >= deadline)
      throw CommError(util::strf("rank_comm: cannot reach coordinator %s:%u: %s",
                                 opts_.host.c_str(), unsigned{opts_.port},
                                 client_.error().c_str()));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // The handshake, then block (deadline-bounded) until welcome — the
  // rendezvous. Frames coalesced behind the welcome stay buffered in the
  // client for the reader thread. The handshake goes out through
  // write_frame, NOT send_frame_locked_throw: a transient send failure here
  // must stay retryable instead of poisoning the communicator via fail().
  util::Json hs = opts_.handshake.is_null() ? make_hello(opts_.rank, opts_.ranks)
                                            : opts_.handshake;
  if (!opts_.failover_addr.empty()) hs["failover"] = opts_.failover_addr;
  std::string send_err;
  if (!write_frame(hs, send_err)) throw RendezvousRetry("hello send failed: " + send_err);

  const std::optional<util::Json> j = client_.recv_json(attempt_deadline - now_seconds());
  bytes_received_.store(client_.bytes_received(), std::memory_order_relaxed);
  if (!j) {
    // A corrupted frame, a reset or a closed connection: retryable.
    if (!client_.error().empty())
      throw RendezvousRetry("rendezvous: " + client_.error());
    if (client_.eof()) throw RendezvousRetry("coordinator closed during rendezvous");
    if (now_seconds() >= deadline)
      throw CommError(util::strf("rank_comm: rendezvous timed out (rank %d of %d)", opts_.rank,
                                 opts_.ranks));
    // No welcome and no error either — a wedged stream (corrupted length
    // prefix) or a coordinator still waiting on stragglers. Re-helloing is
    // cheap and unwedges the former.
    throw AttemptWindowExpired("no welcome within the attempt window");
  }
  const std::string type = frame_type(*j);
  if (type == "abort") {
    // Deliberate refusal (version/rank/key mismatch, world closed):
    // permanent, never retried.
    const util::Json* r = j->find("reason");
    throw CommError(r != nullptr && r->is_string() ? r->as_string() : "rendezvous aborted");
  }
  if (type != "welcome")
    // The coordinator sends nothing but welcome or abort before our
    // welcome. Anything else is a frame whose type a wire fault mangled —
    // the bytes behind it cannot be trusted; start over on a fresh
    // connection.
    throw RendezvousRetry("unexpected '" + type + "' frame during rendezvous");
  if (!opts_.handshake.is_null()) {
    // The coordinator assigned (join) or echoed (reconnect) our member id;
    // the dense rank arrives with a rebalance frame.
    member_.store(frame_int(*j, "rank"), std::memory_order_release);
    ranks_.store(frame_int(*j, "ranks"), std::memory_order_release);
  }
}

RankComm::~RankComm() { finalize(); }

bool RankComm::write_frame(const util::Json& j, std::string& err) {
  const std::string frame = net::encode_frame(j.dump(0));
  if (!net::write_all(client_.fd(), frame, err)) return false;
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(frame.size(), std::memory_order_relaxed);
  return true;
}

void RankComm::send_frame_locked_throw(const util::Json& j) {
  std::string err;
  if (!write_frame(j, err)) {
    fail("rank_comm: " + err);
    throw CommError(failure());
  }
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
  if (client_.connected()) ::shutdown(client_.fd(), SHUT_RDWR);  // FIN, no bye — looks killed
  if (reader_.joinable()) reader_.join();
  fail("rank_comm: hard-killed (fault injection)");
  std::scoped_lock lock(send_mu_);  // an elastic crew worker may be sending
  client_.close();
}

void RankComm::inject_disconnect() {
  if (client_.connected()) ::shutdown(client_.fd(), SHUT_RDWR);
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
  if (client_.connected()) ::shutdown(client_.fd(), SHUT_RDWR);
}

util::Json RankComm::latest_state_sync() const {
  std::scoped_lock lock(state_sync_mu_);
  return state_sync_;
}

std::string RankComm::failure() const {
  std::scoped_lock lock(failure_mu_);
  return failure_.empty() ? "rank_comm: communicator failed" : failure_;
}

bool RankComm::dispatch(const std::string& payload) {
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
  }
  if (type == "leader") {
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
    if (hunt < leader_hunt_) return true;  // a finished hunt's leader
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
    // We are the elected standby: keep only the newest replicated state —
    // promotion reads it after the communicator fails.
    std::scoped_lock lock(state_sync_mu_);
    state_sync_ = std::move(j);
  }
  // unknown types: ignored.
  return true;
}

void RankComm::reader_body() {
  // The constructor sent the first heartbeat; the next is due one interval
  // later. The first recv_frame also delivers frames the rendezvous left
  // buffered behind the welcome.
  const double interval = opts_.heartbeat_interval_seconds;
  double next_hb = now_seconds() + interval;
  while (!stop_threads_.load(std::memory_order_acquire)) {
    double wait = kReaderPollSeconds;
    if (interval > 0) {
      const double now = now_seconds();
      if (now >= next_hb) {
        std::scoped_lock lock(send_mu_);
        try {
          send_frame_locked_throw(make_hb(member()));
        } catch (const CommError&) {
          return;  // fail() already ran
        }
        next_hb = now + interval;
      }
      wait = std::min(wait, next_hb - now);
    }
    const std::optional<std::string> payload = client_.recv_frame(wait);
    bytes_received_.store(client_.bytes_received(), std::memory_order_relaxed);
    if (payload) {
      if (!dispatch(*payload)) return;
      continue;
    }
    if (client_.error().empty() && !client_.eof()) continue;  // quiet: look at stop_threads_
    if (!finalized_.load(std::memory_order_acquire))
      fail(client_.eof() ? std::string("rank_comm: coordinator closed the connection")
                         : "rank_comm: " + client_.error());
    return;
  }
}

void RankComm::finalize() {
  bool expected = false;
  if (!finalized_.compare_exchange_strong(expected, true)) return;
  if (!failed() && client_.connected()) {
    // Best-effort clean detach; the coordinator counts byes.
    std::scoped_lock lock(send_mu_);
    try {
      send_frame_locked_throw(make_bye(member()));
    } catch (const CommError&) {
    }
  }
  stop_threads_.store(true, std::memory_order_release);
  // Shut the read side so the reader sees EOF now instead of at its next
  // timeout; the bye above is already on the wire.
  if (client_.connected()) ::shutdown(client_.fd(), SHUT_RD);
  if (reader_.joinable()) reader_.join();
  client_.close();
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
