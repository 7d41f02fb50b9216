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
  const bool late = opts_.join || opts_.reconnect;
  if (!late && (opts_.rank < 0 || opts_.rank >= opts_.ranks))
    throw CommError(util::strf("rank_comm: rank %d outside world of %d", opts_.rank, opts_.ranks));
  if (opts_.reconnect && opts_.reconnect_member < 0)
    throw CommError("rank_comm: reconnect needs the surviving member id");
  rank_.store(late ? -1 : opts_.rank, std::memory_order_release);
  ranks_.store(late ? 0 : opts_.ranks, std::memory_order_release);
  member_ = opts_.reconnect ? opts_.reconnect_member : (opts_.join ? -1 : opts_.rank);

  // The whole rendezvous — connect, hello/join, await welcome — retries
  // under bounded backoff when an attempt dies on a transient wire fault:
  // a rank whose hello is reset re-runs the handshake instead of aborting
  // the launch (the coordinator re-welcomes and replays what it routed in
  // the meantime — see Coordinator::handle_frame's re-hello path).
  const double deadline = now_seconds() + opts_.connect_timeout_seconds;
  net::Backoff backoff(opts_.rendezvous_backoff,
                       static_cast<uint64_t>(opts_.reconnect ? opts_.reconnect_member + 0x20000
                                                            : opts_.rank) +
                           (opts_.join ? 0x10000u : 1u));
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

  reader_ = std::thread([this] { reader_body(); });
  if (opts_.heartbeat_interval_seconds > 0)
    heartbeat_ = std::thread([this] { heartbeat_body(); });
}

void RankComm::rendezvous_once(double deadline, double attempt_deadline) {
  // Connect with retry: sibling processes race the coordinator's bind.
  std::string err;
  for (;;) {
    fd_ = net::connect_tcp(opts_.host, opts_.port, err);
    if (fd_.valid()) break;
    if (opts_.fail_fast_refused)
      throw CommError(util::strf("rank_comm: cannot reach coordinator %s:%u: %s",
                                 opts_.host.c_str(), unsigned{opts_.port}, err.c_str()));
    if (now_seconds() >= deadline)
      throw CommError(util::strf("rank_comm: cannot reach coordinator %s:%u: %s",
                                 opts_.host.c_str(), unsigned{opts_.port}, err.c_str()));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  net::set_nodelay(fd_.get());

  // hello (or join), then block (deadline-bounded) until welcome — the
  // rendezvous. Runs on the caller's thread with the same decoder the
  // reader thread inherits afterwards, so bytes coalesced behind the
  // welcome frame are not lost. Sends go through write_all directly (NOT
  // send_frame_locked_throw): a transient send failure here must stay
  // retryable instead of poisoning the communicator via fail().
  {
    util::Json hs = opts_.reconnect
                        ? make_reconnect(opts_.reconnect_member, opts_.reconnect_epoch,
                                         opts_.hunt_key)
                        : (opts_.join ? make_join(opts_.hunt_key)
                                      : make_hello(opts_.rank, opts_.ranks));
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
            if (opts_.join || opts_.reconnect) {
              // The coordinator assigned (join) or echoed (reconnect) our
              // member id; the dense rank arrives with the first rebalance
              // frame.
              const util::Json* rj = j.find("rank");
              const util::Json* nj = j.find("ranks");
              if (rj == nullptr || nj == nullptr)
                throw CommError("rank_comm: malformed welcome for joiner");
              member_ = static_cast<int>(rj->as_int());
              ranks_.store(static_cast<int>(nj->as_int()), std::memory_order_release);
            }
          } else if (type == "abort") {
            // Deliberate refusal (version/rank/key mismatch, hunt over):
            // permanent, never retried.
            const util::Json* r = j.find("reason");
            throw CommError(r != nullptr && r->is_string() ? r->as_string()
                                                           : "rendezvous aborted");
          } else if (type == "msg") {
            deliver(parse_msg(j));  // early traffic; keep it
          } else {
            // The only frames the coordinator sends before our welcome are
            // welcome, abort, and replayed early traffic. Anything else is
            // a frame whose type a wire fault mangled — the bytes behind it
            // cannot be trusted; start over on a fresh connection.
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

void RankComm::send_msg(int to, Message m) {
  if (failed()) throw CommError(failure());
  m.source = rank();
  const util::Json frame = make_msg(to, m);
  std::scoped_lock lock(send_mu_);
  send_frame_locked_throw(frame);
}

namespace {

/// Collective payload layout: [seq, data...].
std::vector<int64_t> with_seq(int64_t seq, const std::vector<int64_t>& data) {
  std::vector<int64_t> payload;
  payload.reserve(data.size() + 1);
  payload.push_back(seq);
  payload.insert(payload.end(), data.begin(), data.end());
  return payload;
}

}  // namespace

std::vector<int64_t> RankComm::broadcast(std::vector<int64_t> values) {
  const int64_t seq = collective_seq_++;
  if (size() == 1) return values;
  if (rank() == 0) {
    send_msg(/*to=*/-1, Message{kTagBroadcast, 0, with_seq(seq, values)});
    return values;
  }
  const Message m = receive(kTagBroadcast, seq);
  return {m.payload.begin() + 1, m.payload.end()};
}

std::vector<std::vector<int64_t>> RankComm::gather(const std::vector<int64_t>& row) {
  const int64_t seq = collective_seq_++;
  const int n = size();
  if (rank() != 0) {
    send_msg(/*to=*/0, Message{kTagGather, rank(), with_seq(seq, row)});
    return {};
  }
  std::vector<std::vector<int64_t>> rows(static_cast<size_t>(n));
  std::vector<bool> arrived(static_cast<size_t>(n), false);
  rows[0] = row;
  arrived[0] = true;
  for (int k = 1; k < n; ++k) {
    const Message m = receive(kTagGather, seq);
    if (m.source < 0 || m.source >= n || arrived[static_cast<size_t>(m.source)]) {
      fail(util::strf("rank_comm: gather %lld got a row from unexpected rank %d",
                      static_cast<long long>(seq), m.source));
      throw CommError(failure());
    }
    arrived[static_cast<size_t>(m.source)] = true;
    rows[static_cast<size_t>(m.source)].assign(m.payload.begin() + 1, m.payload.end());
  }
  return rows;
}

void RankComm::begin_request() {
  std::scoped_lock lock(stop_mu_);
  ++request_;
  const bool announced = stops_ahead_.erase(request_) > 0;
  remote_stop_.store(announced || failed(), std::memory_order_release);
}

void RankComm::announce_solution() {
  uint64_t request = 0;
  {
    std::scoped_lock lock(stop_mu_);
    request = request_;
  }
  try {
    send_msg(/*to=*/-1, Message{kTagSolutionFound, rank(), {static_cast<int64_t>(request)}});
  } catch (const CommError&) {
  }
}

void RankComm::deliver(Message m) {
  if (m.tag == kTagSolutionFound) {
    if (m.payload.size() != 1 || m.payload[0] <= 0)
      throw CommError("rank_comm: SOLUTION_FOUND without a request index");
    const auto request = static_cast<uint64_t>(m.payload[0]);
    std::scoped_lock lock(stop_mu_);
    if (request == request_)
      remote_stop_.store(true, std::memory_order_release);
    else if (request > request_)
      stops_ahead_.insert(request);
    return;  // a stop for an earlier request is stale
  }
  if (m.payload.empty())
    throw CommError(util::strf("rank_comm: msg (tag %d) without a sequence number", m.tag));
  {
    std::scoped_lock lock(inbox_mu_);
    inbox_.push_back(std::move(m));
  }
  inbox_cv_.notify_all();
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

void RankComm::on_leader(std::function<void(uint64_t iters, int id)> hook) {
  std::scoped_lock lock(leader_mu_);
  leader_hook_ = std::move(hook);
  if (leader_hook_ && leader_) leader_hook_(leader_->first, leader_->second);
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

Message RankComm::receive(int tag, int64_t seq) {
  const auto t0 = std::chrono::steady_clock::now();
  std::optional<Message> m;
  {
    std::unique_lock lock(inbox_mu_);
    const auto take = [&] {
      const auto it = std::find_if(inbox_.begin(), inbox_.end(), [&](const Message& x) {
        return x.tag == tag && x.payload.front() == seq;
      });
      if (it == inbox_.end()) return false;
      m = std::move(*it);
      inbox_.erase(it);
      return true;
    };
    wait_within(inbox_cv_, lock, opts_.collective_timeout_seconds,
                [&] { return take() || failed(); });
  }
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  {
    std::scoped_lock lock(latency_mu_);
    collective_wait_.add(waited);
  }
  collective_rounds_.fetch_add(1, std::memory_order_relaxed);
  if (m) return std::move(*m);
  if (!failed())
    fail(util::strf("rank_comm: collective (tag %d, seq %lld) timed out after %.1fs — peer dead?",
                    tag, static_cast<long long>(seq), waited));
  throw CommError(failure());
}

void RankComm::fail(const std::string& reason) {
  {
    std::scoped_lock lock(failure_mu_);
    if (failed_.load(std::memory_order_acquire)) return;
    failure_ = reason;
    failed_.store(true, std::memory_order_release);
  }
  {
    std::scoped_lock lock(stop_mu_);  // orders against begin_request's re-arm
    remote_stop_.store(true, std::memory_order_release);
  }
  // Take each waiter's lock before notifying, so a receive that checked
  // failed() just before it flipped cannot miss the wakeup.
  {
    std::scoped_lock lock(inbox_mu_);
  }
  inbox_cv_.notify_all();
  {
    std::scoped_lock lock(control_mu_);
  }
  control_cv_.notify_all();
  // Sever the transport too: a failed communicator that leaves its socket
  // open looks like a live-but-silent rank, and the coordinator would only
  // notice at the heartbeat deadline. EOF makes the death visible now.
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
        if (type == "msg") {
          try {
            deliver(parse_msg(j));
          } catch (const CommError& e) {
            fail(e.what());
            return false;
          }
        } else if (type == "abort") {
          const util::Json* r = j.find("reason");
          fail(r != nullptr && r->is_string() ? r->as_string() : "aborted by coordinator");
          return false;
        } else if (type == "leader") {
          uint64_t iters = 0, id = 0;
          try {
            iters = frame_u64(j, "iters");
            id = frame_u64(j, "id");
          } catch (const CommError& e) {
            fail(util::strf("rank_comm: malformed leader frame: %s", e.what()));
            return false;
          }
          std::scoped_lock lock(leader_mu_);
          const std::pair<uint64_t, int> got{iters, static_cast<int>(id)};
          if (!leader_ || got < *leader_) leader_ = got;
          if (leader_hook_) leader_hook_(got.first, got.second);
        } else if (type == "rebalance") {
          {
            std::scoped_lock lock(control_mu_);
            control_.push_back(std::move(j));
          }
          control_cv_.notify_all();
        } else if (type == "state_sync") {
          // We are the elected standby: keep only the newest replicated
          // state — promotion reads it after the communicator fails.
          std::scoped_lock lock(state_sync_mu_);
          state_sync_ = std::move(j);
        }
        // welcome duplicates / unknown types: ignored.
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
    const util::Json frame = make_hb(member_);
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
      send_frame_locked_throw(make_bye(member_));
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
  j["member"] = member_;
  j["frames_sent"] = frames_sent_.load(std::memory_order_relaxed);
  j["bytes_sent"] = bytes_sent_.load(std::memory_order_relaxed);
  j["frames_received"] = frames_received_.load(std::memory_order_relaxed);
  j["bytes_received"] = bytes_received_.load(std::memory_order_relaxed);
  j["collective_rounds"] = collective_rounds_.load(std::memory_order_relaxed);
  j["rendezvous_retries"] = rendezvous_retries_.load(std::memory_order_relaxed);
  {
    std::scoped_lock lock(latency_mu_);
    util::Json lat = util::Json::object();
    lat["count"] = collective_wait_.count();
    lat["mean_ms"] = collective_wait_.mean() * 1e3;
    lat["p50_ms"] = collective_wait_.percentile(0.50) * 1e3;
    lat["p95_ms"] = collective_wait_.percentile(0.95) * 1e3;
    lat["p99_ms"] = collective_wait_.percentile(0.99) * 1e3;
    lat["max_ms"] = collective_wait_.max() * 1e3;
    j["collective_wait"] = std::move(lat);
  }
  return j;
}

}  // namespace cas::dist
