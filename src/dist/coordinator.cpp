#include "dist/coordinator.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "dist/ckpt.hpp"
#include "dist/wire.hpp"
#include "net/fault.hpp"
#include "net/frame_io.hpp"
#include "util/strings.hpp"

namespace cas::dist {

namespace {

double now_seconds() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

/// The wire version a hello/join/reconnect frame claims (-1 if none).
int version_of(const util::Json& j) {
  try {
    return frame_int(j, "v");
  } catch (const CommError&) {
    return -1;
  }
}

}  // namespace

util::Json CoordinatorStats::to_json() const {
  util::Json j = util::Json::object();
  j["frames_in"] = frames_in.load(std::memory_order_relaxed);
  j["heartbeats"] = heartbeats.load(std::memory_order_relaxed);
  j["aborts"] = aborts.load(std::memory_order_relaxed);
  j["joins"] = joins.load(std::memory_order_relaxed);
  j["leaves"] = leaves.load(std::memory_order_relaxed);
  j["evictions"] = evictions.load(std::memory_order_relaxed);
  j["rebalances"] = rebalances.load(std::memory_order_relaxed);
  j["rehellos"] = rehellos.load(std::memory_order_relaxed);
  j["state_syncs"] = state_syncs.load(std::memory_order_relaxed);
  j["reconnects"] = reconnects.load(std::memory_order_relaxed);
  return j;
}

void Coordinator::open_hunt(uint64_t index, const std::string& key, uint64_t seed, int walkers,
                            uint64_t epoch) {
  {
    std::scoped_lock lock(open_mu_);
    if (index <= opened_.index) return;
    opened_ = Hunt{index, key, seed, walkers, epoch};
    open_pending_ = true;
  }
  wakeup_.notify();
}

Coordinator::Coordinator(CoordinatorOptions opts) : opts_(std::move(opts)) {
  if (opts_.ranks < 1) throw std::invalid_argument("coordinator: ranks must be >= 1");
  std::string err;
  listen_fd_ = net::listen_tcp(opts_.host, opts_.port, /*backlog=*/opts_.ranks + 4, err);
  if (!listen_fd_.valid()) throw std::runtime_error("coordinator: " + err);
  port_ = net::local_port(listen_fd_.get());
  net::set_nonblocking(listen_fd_.get(), true);
  fd_of_rank_.assign(static_cast<size_t>(opts_.ranks), -1);
  loop_.add(wakeup_.read_fd(), /*want_read=*/true, /*want_write=*/false);
  loop_.add(listen_fd_.get(), /*want_read=*/true, /*want_write=*/false);
  started_ = now_seconds();
  thread_ = std::thread([this] { run(); });
}

Coordinator::Coordinator(CoordinatorOptions opts, net::Fd adopted_listener,
                         const util::Json& state)
    : opts_(std::move(opts)) {
  if (!adopted_listener.valid())
    throw CommError("coordinator: promotion needs a pre-bound failover listener");
  listen_fd_ = std::move(adopted_listener);
  port_ = net::local_port(listen_fd_.get());
  net::set_nonblocking(listen_fd_.get(), true);
  import_state(state);
  reconnect_mode_ = true;
  reconnect_started_ = now_seconds();
  loop_.add(wakeup_.read_fd(), /*want_read=*/true, /*want_write=*/false);
  loop_.add(listen_fd_.get(), /*want_read=*/true, /*want_write=*/false);
  started_ = now_seconds();
  thread_ = std::thread([this] { run(); });
}

Coordinator::~Coordinator() { stop(); }

bool Coordinator::all_detached() const {
  const int admitted = admitted_.load(std::memory_order_acquire);
  if (admitted == 0 || detached_.load(std::memory_order_acquire) < admitted) return false;
  return joins_seen_.load(std::memory_order_acquire) >= lost_.load(std::memory_order_acquire) ||
         now_seconds() - last_lost_.load(std::memory_order_acquire) > kRejoinGraceSeconds;
}

void Coordinator::stop() {
  stop_requested_.store(true, std::memory_order_release);
  wakeup_.notify();
  if (thread_.joinable()) thread_.join();
}

void Coordinator::run() {
  std::vector<net::Event> events;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    loop_.wait(events, 100);
    const double now = now_seconds();
    for (const net::Event& e : events) {
      if (e.fd == wakeup_.read_fd()) {
        wakeup_.drain();
        continue;
      }
      if (e.fd == listen_fd_.get()) {
        accept_ready(now);
        continue;
      }
      if (e.writable && peers_.count(e.fd) != 0) peer_writable(e.fd);
      if ((e.readable || e.hangup) && peers_.count(e.fd) != 0) peer_readable(e.fd, now);
    }
    check_liveness(now);
    maybe_open();
  }
  // No hunt will open any more: tell the joiners still waiting for one.
  const std::string closed = make_abort("coordinator: the world closed before a hunt admitted "
                                        "this member")
                                 .dump(0);
  const std::vector<int> waiting = pending_join_fds_;
  for (const int fd : waiting)
    if (peers_.count(fd) != 0) enqueue(*peers_.at(fd), closed);
  peers_.clear();
}

void Coordinator::accept_ready(double now) {
  for (;;) {
    const int fd = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN/transient: next readiness retries
    if (net::fault_refuse_accept()) {
      ::close(fd);  // injected refusal: the peer sees EOF and retries
      continue;
    }
    net::set_nonblocking(fd, true);
    net::set_nodelay(fd);
    auto peer = std::make_unique<Peer>(net::Fd(fd));
    peer->last_seen = now;
    loop_.add(fd, /*want_read=*/true, /*want_write=*/false);
    peers_[fd] = std::move(peer);
  }
}

void Coordinator::peer_readable(int fd, double now) {
  Peer& p = *peers_.at(fd);
  for (;;) {
    size_t bytes = 0;
    const net::IoStatus st = net::read_chunk(fd, p.decoder, bytes);
    if (st == net::IoStatus::kWouldBlock) break;
    if (st == net::IoStatus::kError || st == net::IoStatus::kEof) {
      drop_peer(fd, /*expected=*/p.said_bye);
      return;
    }
    p.last_seen = now;
    std::string payload;
    bool more = true;
    while (more) {
      switch (p.decoder.next(payload)) {
        case net::FrameDecoder::Result::kFrame:
          stats_.frames_in.fetch_add(1, std::memory_order_relaxed);
          handle_frame(p, payload, now);
          if (peers_.count(fd) == 0) return;  // frame handler dropped us
          break;
        case net::FrameDecoder::Result::kNeedMore:
          more = false;
          break;
        case net::FrameDecoder::Result::kError:
          drop_peer(fd, /*expected=*/false);
          return;
      }
    }
  }
}

void Coordinator::handle_frame(Peer& p, const std::string& payload, double now) {
  util::Json j;
  try {
    j = util::Json::parse(payload);
  } catch (const std::exception&) {
    drop_peer(p.fd.get(), /*expected=*/false);
    return;
  }
  const std::string type = frame_type(j);
  // The first post-hello frame proves the member's welcome landed: it will
  // never re-hello.
  if (p.rank >= 0 && type != "hello") spoke_.insert(p.rank);
  if (type == "hello") {
    if (p.rank >= 0 || p.pending_join) {
      // One handshake per connection, as for join: a rank's retry always
      // dials afresh, so a second hello on one stream is a stream this
      // coordinator cannot trust. Counting it again would welcome a world
      // with a rank missing, or two ranks on one socket.
      drop_peer(p.fd.get(), /*expected=*/false);
      return;
    }
    int rank = -1, ranks = -1;
    const int version = version_of(j);
    try {
      rank = frame_int(j, "rank");
      ranks = frame_int(j, "ranks");
    } catch (const CommError&) {
    }
    if (version != kWireVersion || rank < 0 || rank >= opts_.ranks || ranks != opts_.ranks) {
      // A misconfigured launch — or one corrupted byte in an otherwise
      // healthy rank's hello (the fault layer's corrupt class produces
      // exactly this). The two are indistinguishable here, and only the
      // connection is provably bad: drop it so a healthy rank's
      // rendezvous retry resends a clean hello. A genuinely bad config
      // keeps failing until the rendezvous timeout names the missing rank.
      std::fprintf(stderr,
                   "coordinator: dropping invalid hello (v%d, rank %d of %d; this world is v%d, "
                   "%d ranks) — corrupt frame or misconfigured launch\n",
                   version, rank, ranks, kWireVersion, opts_.ranks);
      drop_peer(p.fd.get(), /*expected=*/false);
      return;
    }
    if (aborted_) {
      // Late retry into a dead world: tell it, so it stops retrying.
      enqueue(p, make_abort("coordinator: world aborted").dump(0));
      return;
    }
    if (spoke_.count(rank) != 0) {
      // That rank demonstrably completed rendezvous on another connection
      // — a second hello is a duplicate launch, not a retry.
      abort_world(util::strf("coordinator: duplicate hello for live rank %d", rank));
      return;
    }
    if (const util::Json* fo = j.find("failover"); fo != nullptr && fo->is_string())
      p.failover_addr = fo->as_string();
    if (welcomed_) {
      // Post-welcome re-hello: the rank's previous connection died before
      // it spoke, so its welcome may have been lost with it.
      if (const auto mit = members_.find(rank);
          mit == members_.end() || !member_active(mit->second)) {
        enqueue(p, make_abort("coordinator: re-hello refused — member already retired").dump(0));
        return;
      }
      stats_.rehellos.fetch_add(1, std::memory_order_relaxed);
      rebind(p, rank, /*from_hunt=*/1);  // an initial rank has seen no hunt yet
      return;
    }
    const int old_fd = fd_of_rank_[static_cast<size_t>(rank)];
    if (old_fd != -1 && old_fd != p.fd.get()) {
      // Stale occupant: the rank retried rendezvous on a fresh connection
      // before we noticed the old one die. Forget the corpse silently.
      loop_.remove(old_fd);
      peers_.erase(old_fd);
      --joined_;
    }
    p.rank = rank;
    fd_of_rank_[static_cast<size_t>(rank)] = p.fd.get();
    if (++joined_ < opts_.ranks) return;
    welcomed_ = true;
    for (int r = 0; r < opts_.ranks; ++r) {
      Member m;
      m.fd = fd_of_rank_[static_cast<size_t>(r)];
      m.dense = r;
      m.failover_addr = peers_.at(m.fd)->failover_addr;
      members_[r] = m;
    }
    next_member_ = opts_.ranks;
    admitted_.store(opts_.ranks, std::memory_order_release);
    for (int r = 0; r < opts_.ranks; ++r)
      enqueue(*peers_.at(fd_of_rank_[static_cast<size_t>(r)]),
              make_welcome(r, opts_.ranks).dump(0));
    return;
  }
  if (type == "hb") {
    stats_.heartbeats.fetch_add(1, std::memory_order_relaxed);
    p.last_seen = now;
    return;
  }
  if (type == "bye") {
    p.said_bye = true;
    return;
  }
  if (type == "join") {
    handle_join(p, j);
    return;
  }
  if (type == "reconnect") {
    handle_reconnect(p, j, now);
    return;
  }
  if (type == "leave") {
    int member = -1;
    try {
      member = frame_int(j, "rank");
    } catch (const CommError& e) {
      abort_world(e.what());
      return;
    }
    if (member == opts_.host_member) {
      abort_world(util::strf(
          "coordinator: member %d cannot leave (it hosts the coordinator); halt instead",
          member));
      return;
    }
    const auto it = members_.find(member);
    if (it != members_.end() && member_active(it->second)) {
      it->second.leaving = true;
      stats_.leaves.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  if (type == "epoch") {
    handle_epoch(j);
    return;
  }
  if (type == "solved") {
    handle_solved(j);
    return;
  }
  if (type == "ckpt") {
    try {
      const int member = frame_int(j, "rank");
      const uint64_t epoch = frame_u64(j, "epoch");
      const auto it = members_.find(member);
      if (it != members_.end()) {
        it->second.any_ckpt = true;
        it->second.last_ckpt_epoch = epoch;
      }
    } catch (const CommError& e) {
      abort_world(e.what());
    }
    return;
  }
  // An unknown type proves only that THIS connection's stream can no
  // longer be trusted (one corrupted byte in a type field lands here) —
  // drop the peer and let the liveness machinery account for the member:
  // pre-welcome peers retry their rendezvous, members that never spoke get
  // the re-hello grace window, the rest are evicted.
  std::fprintf(stderr, "coordinator: dropping peer (rank %d) after unknown frame type '%s'\n",
               p.rank, type.c_str());
  drop_peer(p.fd.get(), /*expected=*/false);
}

void Coordinator::handle_join(Peer& p, const util::Json& j) {
  const int version = version_of(j);
  if (version != kWireVersion) {
    // Refuse just this peer: a mis-versioned joiner must not kill a hunt.
    enqueue(p, make_abort(util::strf("coordinator: wire version mismatch (joiner speaks v%d, "
                                     "this world v%d)",
                                     version, kWireVersion))
                   .dump(0));
    return;
  }
  if (!welcomed_) {
    enqueue(p, make_abort("coordinator: join refused — world still in rendezvous").dump(0));
    return;
  }
  if (p.rank >= 0 || p.pending_join) {
    // One handshake per connection: a member, or a joiner already waiting,
    // that says join again has a stream this coordinator cannot trust.
    drop_peer(p.fd.get(), /*expected=*/false);
    return;
  }
  const util::Json* kj = j.find("key");
  const std::string key = (kj != nullptr && kj->is_string()) ? kj->as_string() : "";
  uint64_t hunt = 0;
  try {
    hunt = frame_u64(j, "hunt");
  } catch (const CommError& e) {
    enqueue(p, make_abort(util::strf("coordinator: join refused — %s", e.what())).dump(0));
    return;
  }
  joins_seen_.fetch_add(1, std::memory_order_release);  // a lost member may be back (all_detached)
  if (hunt != 0) {
    // A rejoin: back into the hunt it left, or told how that hunt and every
    // later finished one ended, one final for each of the member's next
    // solves, and kept for the next opening. Pending first: a write error
    // while answering drops it from the pending list with the peer.
    if (hunting_ && hunt == hunt_.index) {
      pend_join(p, j, key, /*rejoin=*/true);
    } else if (finals_.count(hunt) != 0) {
      pend_join(p, j, key, /*rejoin=*/true);
      catch_up(p.fd.get(), -1, hunt);
    } else {
      enqueue(p, make_abort(util::strf("coordinator: rejoin refused — hunt %llu is neither "
                                       "running nor finished",
                                       static_cast<unsigned long long>(hunt)))
                     .dump(0));
    }
    return;
  }
  if (hunting_ && key != hunt_.key) {
    enqueue(p, make_abort("coordinator: join refused — request key does not match the hunt "
                          "in progress")
                   .dump(0));
    return;
  }
  // During a hunt the joiner is admitted at a wave boundary or answered
  // with the outcome; between hunts its key is checked when the next opens.
  pend_join(p, j, key, /*rejoin=*/false);
}

void Coordinator::pend_join(Peer& p, const util::Json& j, std::string key, bool rejoin) {
  if (const util::Json* fo = j.find("failover"); fo != nullptr && fo->is_string())
    p.failover_addr = fo->as_string();
  p.join_key = std::move(key);
  p.rejoin = rejoin;
  p.pending_join = true;
  pending_join_fds_.push_back(p.fd.get());
  stats_.joins.fetch_add(1, std::memory_order_relaxed);
}

void Coordinator::handle_epoch(const util::Json& j) {
  int member = -1;
  uint64_t hunt = 0, epoch = 0;
  try {
    member = frame_int(j, "rank");
    hunt = frame_u64(j, "hunt");
    epoch = frame_u64(j, "epoch");
  } catch (const CommError& e) {
    abort_world(e.what());
    return;
  }
  if (!hunting_ || hunt != hunt_.index) return;  // another hunt's report
  const auto it = members_.find(member);
  if (it == members_.end() || !member_active(it->second)) return;  // late frame from the retired
  Member& m = it->second;
  if (epoch != wave_) {
    abort_world(util::strf("coordinator: member %d reported epoch %llu during wave %llu", member,
                           static_cast<unsigned long long>(epoch),
                           static_cast<unsigned long long>(wave_)));
    return;
  }
  m.reported = true;
  m.summary = j;
  try {
    m.done = frame_bool(j, "done", false);
    m.settled = frame_bool(j, "settled", false);
    m.halt = frame_bool(j, "halt", false);
    m.walkers = j.find("walkers") != nullptr ? frame_int(j, "walkers") : 0;
    const util::Json* solved = j.find("solved");
    m.listed = solved != nullptr && solved->is_array() && !solved->as_array().empty();
  } catch (const CommError& e) {
    abort_world(e.what());
    return;
  }
  maybe_complete_wave();
}

void Coordinator::handle_solved(const util::Json& j) {
  int member = -1;
  uint64_t hunt = 0, id = 0, iters = 0;
  core::RunStats stats;
  try {
    member = frame_int(j, "rank");
    hunt = frame_u64(j, "hunt");
    id = frame_u64(j, "id");
    iters = frame_u64(j, "iters");
    stats = run_stats_from_json(j.at("stats"));
  } catch (const std::exception& e) {
    abort_world(util::strf("coordinator: malformed solved frame: %s", e.what()));
    return;
  }
  if (!hunting_ || hunt != hunt_.index) return;  // another hunt's solve
  if (id >= static_cast<uint64_t>(hunt_.walkers) || !stats.solved || stats.iterations != iters) {
    abort_world(util::strf("coordinator: member %d reported an impossible solve (walker %llu)",
                           member, static_cast<unsigned long long>(id)));
    return;
  }
  if (have_leader_ && std::pair{iters, id} >= std::pair{leader_iters_, leader_id_}) return;
  have_leader_ = true;
  leader_iters_ = iters;
  leader_id_ = id;
  winner_member_ = member;
  winner_stats_ = j.at("stats");
  const std::string frame = make_leader(hunt_.index, id, iters).dump(0);
  for (const auto& [mid, m] : members_)
    if (member_active(m)) send_to_member(mid, frame);
  send_state_sync();  // a promoted standby starts from the leader too
}

void Coordinator::retire_member(int member, bool evicted) {
  const auto it = members_.find(member);
  if (it == members_.end() || !member_active(it->second)) return;
  (evicted ? it->second.evicted : it->second.left) = true;
  it->second.fd = -1;
  if (evicted) stats_.evictions.fetch_add(1, std::memory_order_relaxed);
  maybe_complete_wave();
}

int Coordinator::active_count() const {
  int n = 0;
  for (const auto& [id, m] : members_)
    if (member_active(m)) ++n;
  return n;
}

void Coordinator::maybe_open() {
  if (reconnect_mode_ || aborted_ || !welcomed_) return;
  Hunt next;
  {
    std::scoped_lock lock(open_mu_);
    if (!open_pending_) return;
    open_pending_ = false;
    next = opened_;
  }
  if (hunting_) complete_wave(/*final=*/true);  // the host left the running hunt undecided
  hunt_ = std::move(next);
  hunting_ = true;
  wave_ = hunt_.epoch;
  ckpt_epoch_ = static_cast<int64_t>(hunt_.epoch) - 1;
  have_leader_ = decided_ = false;
  winner_member_ = -1;
  winner_stats_ = {};
  for (auto& [id, m] : members_) {
    m.done = m.settled = m.listed = m.halt = m.reported = m.any_ckpt = false;
    m.walkers = 0;
    m.last_ckpt_epoch = 0;
    m.summary = {};
  }
  // A fresh joiner that arrived between hunts must want this one.
  const std::string refusal =
      make_abort("coordinator: join refused — request key does not match the hunt opened")
          .dump(0);
  for (const int fd : std::vector<int>(pending_join_fds_)) {
    Peer& p = *peers_.at(fd);
    if (p.rejoin || p.join_key == hunt_.key) continue;
    std::erase(pending_join_fds_, fd);
    p.pending_join = false;
    enqueue(p, refusal);
  }
  send_view(wave_, /*final=*/false);
  send_state_sync();
}

void Coordinator::maybe_complete_wave() {
  if (!welcomed_ || aborted_ || !hunting_) return;
  bool all_done = true;
  bool all_settled = true;
  bool any_halt = false;
  bool listed = false;
  int active = 0;
  int walkers = 0;
  for (const auto& [id, m] : members_) {
    if (!member_active(m)) continue;
    ++active;
    if (!m.reported) return;  // wave still in flight
    all_done = all_done && m.done;
    all_settled = all_settled && m.settled;
    any_halt = any_halt || m.halt;
    listed = listed || m.listed;
    walkers += m.walkers;
  }
  if (active == 0) {
    abort_world("coordinator: every member left or died");
    return;
  }
  // FIFO per connection guarantees each member's wave ckpt frame arrived
  // before its epoch frame, so the cut is consistent by the time we get
  // here: advance the durable epoch when everyone active acknowledged it.
  bool all_ckpt = true;
  for (const auto& [id, m] : members_) {
    if (!member_active(m)) continue;
    if (!m.any_ckpt || m.last_ckpt_epoch < wave_) all_ckpt = false;
  }
  if (all_ckpt) ckpt_epoch_ = static_cast<int64_t>(wave_);
  // Reports that cover every walker decide the hunt when one lists a solve
  // by the wave's end, or when every member settled: no walker can beat the
  // leader any more. A member lost mid-wave leaves its walkers uncovered
  // until the next view re-homes them.
  const bool covered = walkers >= hunt_.walkers;
  if (covered && (listed || all_settled)) decided_ = true;
  complete_wave(/*final=*/any_halt || all_done || (covered && all_settled));
}

void Coordinator::complete_wave(bool final) {
  send_view(final ? wave_ : wave_ + 1, final);
  if (!final) ++wave_;
  // Mirror the post-wave state to the standby on the same boundary the
  // rebalance frames just rode: if this process dies any time before the
  // next sync, the standby can reconstruct the world at wave_ exactly.
  send_state_sync();
}

void Coordinator::send_view(uint64_t epoch, bool final) {
  stats_.rebalances.fetch_add(1, std::memory_order_relaxed);
  std::vector<int> retired, admitted;
  if (final) {
    hunting_ = false;
  } else {
    // Retire leaving members, then admit the pending joiners.
    for (auto& [id, m] : members_) {
      if (member_active(m) && m.leaving) {
        m.left = true;
        retired.push_back(id);
      }
    }
    for (const int fd : pending_join_fds_) {
      const auto pit = peers_.find(fd);
      if (pit == peers_.end()) continue;  // died while pending
      const int id = next_member_++;
      Member m;
      m.fd = fd;
      m.failover_addr = pit->second->failover_addr;
      members_[id] = m;
      pit->second->rank = id;
      pit->second->pending_join = false;
      admitted.push_back(id);
      admitted_.fetch_add(1, std::memory_order_release);
    }
    pending_join_fds_.clear();
  }

  util::Json base = next_view(epoch, final, admitted);
  const int ranks = frame_int(base, "ranks");
  if (!final) view_ = base;

  if (final) {
    if (decided_ && have_leader_) {
      util::Json w = util::Json::object();
      w["id"] = wire_u64(leader_id_);
      w["iters"] = wire_u64(leader_iters_);
      w["stats"] = winner_stats_;
      w["member"] = winner_member_;
      base["winner"] = std::move(w);
    }
    util::Json summaries = util::Json::array();
    for (const auto& [id, m] : members_) {
      if (m.summary.is_null()) continue;
      util::Json row = m.summary;
      row["member"] = id;
      row["evicted"] = m.evicted;
      row["left"] = m.left;
      summaries.push_back(std::move(row));
    }
    base["summaries"] = std::move(summaries);
    // A join still pending came too late to take part: it is answered with
    // the outcome, as a non-member. That ends a fresh joiner's request; a
    // rejoiner, a member of the world, waits for the next hunt.
    util::Json late = base;
    late["your_rank"] = -1;
    finals_[hunt_.index] = late.dump(0);
    for (const int fd : std::vector<int>(pending_join_fds_)) {
      catch_up(fd, -1, hunt_.index);
      const auto pit = peers_.find(fd);
      if (pit == peers_.end() || pit->second->rejoin) continue;
      pit->second->pending_join = false;
      std::erase(pending_join_fds_, fd);
    }
  }

  // Personalized delivery: joiners were just welcomed (member id assigned),
  // retiring members get your_rank = -1 so they detach after this frame.
  for (const int id : admitted) send_to_member(id, make_welcome(id, ranks).dump(0));
  for (const auto& [id, m] : members_) {
    if (!member_active(m) && !m.left) continue;
    util::Json frame = base;
    frame["your_rank"] = member_active(m) ? m.dense : -1;
    send_to_member(id, frame.dump(0));
  }
  for (const int id : retired) members_.at(id).fd = -1;
}

util::Json Coordinator::next_view(uint64_t epoch, bool final, const std::vector<int>& joined) {
  // Dense rank = index in the ascending-member-id active list.
  int dense = 0;
  util::Json members_list = util::Json::array();
  util::Json evicted_list = util::Json::array();
  for (auto& [id, m] : members_) {
    if (!member_active(m)) {
      if (m.evicted) evicted_list.push_back(id);
      continue;
    }
    m.dense = dense++;
    m.reported = false;
    members_list.push_back(id);
  }
  elect_standby();
  util::Json base = make_rebalance_base(hunt_.index, epoch);
  base["ranks"] = dense;
  base["final"] = final;
  base["ckpt_epoch"] = static_cast<int64_t>(ckpt_epoch_);
  if (promoted_from_ >= 0) base["promoted_from"] = promoted_from_;
  if (opts_.standby) {
    base["standby_member"] = standby_member_;
    base["standby_addr"] = standby_addr_;
  }
  base["seed"] = wire_u64(hunt_.seed);
  base["walkers"] = hunt_.walkers;
  if (have_leader_) {
    util::Json leader = util::Json::object();
    leader["id"] = wire_u64(leader_id_);
    leader["iters"] = wire_u64(leader_iters_);
    base["leader"] = std::move(leader);
  }
  base["members"] = std::move(members_list);
  base["evicted"] = std::move(evicted_list);
  util::Json joined_list = util::Json::array();
  for (const int id : joined) joined_list.push_back(id);
  base["joined"] = std::move(joined_list);
  return base;
}

void Coordinator::elect_standby() {
  standby_member_ = -1;
  standby_addr_.clear();
  if (!opts_.standby) return;
  int best_dense = -1;
  for (const auto& [id, m] : members_) {
    if (!member_active(m) || id == opts_.host_member || m.failover_addr.empty()) continue;
    if (best_dense < 0 || m.dense < best_dense) {
      best_dense = m.dense;
      standby_member_ = id;
      standby_addr_ = m.failover_addr;
    }
  }
}

util::Json Coordinator::export_state() {
  util::Json s = util::Json::object();
  s["v"] = kWireVersion;
  s["hunt"] = wire_u64(hunt_.index);
  s["hunting"] = hunting_;
  s["key"] = hunt_.key;
  s["seed"] = wire_u64(hunt_.seed);
  s["walkers"] = hunt_.walkers;
  s["wave"] = wire_u64(wave_);
  s["ckpt_epoch"] = static_cast<int64_t>(ckpt_epoch_);
  s["next_member"] = next_member_;
  s["host_member"] = opts_.host_member;
  s["have_leader"] = have_leader_;
  s["decided"] = decided_;
  if (have_leader_) {
    s["leader_iters"] = wire_u64(leader_iters_);
    s["leader_id"] = wire_u64(leader_id_);
    s["winner_member"] = winner_member_;
    s["winner_stats"] = winner_stats_;
  }
  util::Json members = util::Json::array();
  for (const auto& [id, m] : members_) {
    util::Json row = util::Json::object();
    row["id"] = id;
    row["leaving"] = m.leaving;
    row["left"] = m.left;
    row["evicted"] = m.evicted;
    row["done"] = m.done;
    row["halt"] = m.halt;
    row["any_ckpt"] = m.any_ckpt;
    row["last_ckpt_epoch"] = wire_u64(m.last_ckpt_epoch);
    if (!m.failover_addr.empty()) row["failover"] = m.failover_addr;
    if (!m.summary.is_null()) row["summary"] = m.summary;
    members.push_back(std::move(row));
  }
  s["members"] = std::move(members);
  return s;
}

void Coordinator::import_state(const util::Json& state) {
  try {
    hunt_.index = frame_u64(state, "hunt");
    hunting_ = frame_bool(state, "hunting", false);
    hunt_.key = state.at("key").as_string();
    hunt_.seed = frame_u64(state, "seed");
    hunt_.walkers = frame_int(state, "walkers");
    wave_ = frame_u64(state, "wave");
    ckpt_epoch_ = state.at("ckpt_epoch").as_int();
    next_member_ = frame_int(state, "next_member");
    promoted_from_ = frame_int(state, "host_member");
    have_leader_ = frame_bool(state, "have_leader", false);
    decided_ = frame_bool(state, "decided", false);
    if (have_leader_) {
      leader_iters_ = frame_u64(state, "leader_iters");
      leader_id_ = frame_u64(state, "leader_id");
      winner_member_ = frame_int(state, "winner_member");
      winner_stats_ = state.at("winner_stats");
    }
    const util::Json& members = state.at("members");
    if (!members.is_array()) throw CommError("coordinator: state members is not an array");
    for (const util::Json& row : members.as_array()) {
      const int id = frame_int(row, "id");
      Member m;
      m.fd = -1;
      m.leaving = frame_bool(row, "leaving", false);
      m.left = frame_bool(row, "left", false);
      m.evicted = frame_bool(row, "evicted", false);
      m.done = frame_bool(row, "done", false);
      m.halt = frame_bool(row, "halt", false);
      m.any_ckpt = frame_bool(row, "any_ckpt", false);
      m.last_ckpt_epoch = frame_u64(row, "last_ckpt_epoch");
      if (const util::Json* fo = row.find("failover"); fo != nullptr && fo->is_string())
        m.failover_addr = fo->as_string();
      if (const util::Json* su = row.find("summary"); su != nullptr) m.summary = *su;
      members_[id] = std::move(m);
    }
  } catch (const CommError&) {
    throw;
  } catch (const std::exception& e) {
    throw CommError(util::strf("coordinator: malformed replicated state: %s", e.what()));
  }
  if (next_member_ < 0 || next_member_ > (1 << 20))
    throw CommError("coordinator: malformed replicated state: next_member out of range");
  // The dead host is the one member that cannot reconnect.
  if (const auto hit = members_.find(promoted_from_);
      hit != members_.end() && member_active(hit->second)) {
    hit->second.evicted = true;
    stats_.evictions.fetch_add(1, std::memory_order_relaxed);
  }
  const int survivors = active_count();
  if (survivors == 0) throw CommError("coordinator: replicated state has no surviving members");
  welcomed_ = true;
  admitted_.store(survivors, std::memory_order_release);
  opened_ = hunt_;
}

void Coordinator::send_state_sync() {
  if (standby_member_ < 0) return;
  const auto mit = members_.find(standby_member_);
  if (mit == members_.end() || mit->second.fd < 0 || peers_.count(mit->second.fd) == 0) return;
  enqueue(*peers_.at(mit->second.fd), make_state_sync(wave_, export_state()).dump(0));
  stats_.state_syncs.fetch_add(1, std::memory_order_relaxed);
}

void Coordinator::handle_reconnect(Peer& p, const util::Json& j, double now) {
  const int version = version_of(j);
  if (version != kWireVersion) {
    enqueue(p, make_abort(util::strf("coordinator: wire version mismatch (reconnect speaks "
                                     "v%d, this world v%d)",
                                     version, kWireVersion))
                   .dump(0));
    return;
  }
  if (!reconnect_mode_) {
    // Late arrival after the window closed (or a reconnect sent to a
    // never-promoted coordinator): refuse — the survivor falls back to the
    // ordinary rejoin against a live world.
    enqueue(p, make_abort("coordinator: no reconnect window open").dump(0));
    return;
  }
  int member = -1;
  uint64_t hunt = 0, epoch = 0;
  try {
    member = frame_int(j, "rank");
    hunt = frame_u64(j, "hunt");
    epoch = frame_u64(j, "epoch");
  } catch (const CommError&) {
    drop_peer(p.fd.get(), /*expected=*/false);
    return;
  }
  const auto mit = members_.find(member);
  if (mit == members_.end() || !member_active(mit->second)) {
    enqueue(p, make_abort(util::strf("coordinator: reconnect refused — member %d is not a "
                                     "surviving member",
                                     member))
                   .dump(0));
    return;
  }
  // Stamp invariant: a survivor is in the replicated hunt and never more
  // than one wave away from the replicated state (state_sync rides the same
  // boundary as the rebalance it mirrors) — or, when the state is between
  // hunts, already in the next one: a hunt's opening goes to every member
  // before the standby's state_sync, and the host died in between. The
  // promoted host opens that hunt again. Anything else means the state
  // blob and the survivor describe different worlds.
  const bool this_hunt = hunt == hunt_.index && epoch <= wave_ + 1 && epoch + 1 >= wave_;
  const bool next_hunt = !hunting_ && hunt == hunt_.index + 1;
  if (!this_hunt && !next_hunt) {
    abort_world(util::strf("coordinator: reconnect from member %d stamps hunt %llu epoch %llu "
                           "but the replicated state is at hunt %llu wave %llu",
                           member, static_cast<unsigned long long>(hunt),
                           static_cast<unsigned long long>(epoch),
                           static_cast<unsigned long long>(hunt_.index),
                           static_cast<unsigned long long>(wave_)));
    return;
  }
  mit->second.reconnected = true;
  if (const util::Json* fo = j.find("failover"); fo != nullptr && fo->is_string())
    p.failover_addr = fo->as_string();
  stats_.reconnects.fetch_add(1, std::memory_order_relaxed);
  rebind(p, member, hunt);  // a retry after a lost welcome is answered the same way
  maybe_finish_reconnect(now);
}

void Coordinator::maybe_finish_reconnect(double now) {
  if (!reconnect_mode_ || aborted_) return;
  bool all = true;
  for (const auto& [id, m] : members_) {
    if (!member_active(m)) continue;
    if (!m.reconnected || m.fd < 0) all = false;
  }
  if (!all) {
    if (now - reconnect_started_ <= opts_.rendezvous_timeout_seconds) return;
    // Window expired: whoever has not re-rendezvoused is gone too.
    for (auto& [id, m] : members_) {
      if (!member_active(m) || (m.reconnected && m.fd >= 0)) continue;
      detached_.fetch_add(1, std::memory_order_release);
      m.evicted = true;
      m.fd = -1;
      stats_.evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (active_count() == 0) {
    abort_world("coordinator: no survivor reconnected within the failover window");
    return;
  }
  reconnect_mode_ = false;
  if (!hunting_) return;  // between hunts: the host opens the next one
  // Resume rebalance: the same personalized frame a completed wave sends,
  // except the wave index does not advance — everyone rewinds to the
  // replicated epoch and re-runs it (deterministic walkers make the replay
  // bit-identical, and re-reported acks are idempotent).
  send_view(wave_, /*final=*/false);
  send_state_sync();
}

void Coordinator::rebind(Peer& p, int member, uint64_t from_hunt) {
  Member& m = members_.at(member);
  if (m.fd >= 0 && m.fd != p.fd.get()) {
    // Stale occupant: the member dialed in again before we noticed the old
    // connection die. Forget the corpse silently.
    loop_.remove(m.fd);
    peers_.erase(m.fd);
  }
  p.rank = member;
  if (!p.failover_addr.empty()) m.failover_addr = p.failover_addr;
  m.fd = p.fd.get();
  vacant_since_.erase(member);
  catch_up(m.fd, member, from_hunt);
}

void Coordinator::catch_up(int fd, int member, uint64_t from_hunt) {
  const auto send = [&](const std::string& frame) {
    const auto it = peers_.find(fd);
    if (it == peers_.end()) return false;  // died while pending, or a write error dropped it
    enqueue(*it->second, frame);
    return true;
  };
  if (!send(make_welcome(member, active_count()).dump(0))) return;
  for (auto it = finals_.lower_bound(from_hunt); it != finals_.end(); ++it)
    if (!send(it->second)) return;
  // No wave completes without a member's report, and a member caught up
  // here has not sent one since the view of the wave in progress.
  if (member < 0 || !hunting_ || reconnect_mode_) return;
  util::Json view = view_;
  view["your_rank"] = members_.at(member).dense;
  if (send(view.dump(0)) && have_leader_)
    send(make_leader(hunt_.index, leader_id_, leader_iters_).dump(0));
}

void Coordinator::enqueue(Peer& p, const std::string& payload) {
  net::append_frame(p.outbuf, payload);
  // Try an immediate flush; whatever the socket refuses waits for epoll.
  peer_writable(p.fd.get());
}

void Coordinator::send_to_member(int member, const std::string& payload) {
  const Member& m = members_.at(member);
  if (m.fd >= 0 && peers_.count(m.fd) != 0) enqueue(*peers_.at(m.fd), payload);
}

void Coordinator::peer_writable(int fd) {
  Peer& p = *peers_.at(fd);
  size_t sent = 0;
  const net::IoStatus st = net::flush_pending(fd, p.outbuf, p.out_off, sent);
  if (st == net::IoStatus::kError) {
    drop_peer(fd, /*expected=*/p.said_bye);
    return;
  }
  update_interest(p);
}

void Coordinator::update_interest(Peer& p) {
  const bool wr = p.out_off < p.outbuf.size();
  if (wr == p.want_write) return;
  p.want_write = wr;
  loop_.modify(p.fd.get(), /*want_read=*/true, wr);
}

void Coordinator::drop_peer(int fd, bool expected) {
  const auto it = peers_.find(fd);
  if (it == peers_.end()) return;
  const int rank = it->second->rank;
  const bool was_pending = it->second->pending_join;
  loop_.remove(fd);
  peers_.erase(it);
  if (rank < 0) {
    // A pending joiner, a refused peer, or a stranger that never said
    // hello — including a rank whose hello was lost on the wire and is
    // already retrying on a fresh connection. Never world-fatal.
    if (was_pending) std::erase(pending_join_fds_, fd);
    return;
  }
  if (!welcomed_) {
    // Rendezvous-phase drop: release the slot for the rank's retry;
    // the rendezvous timeout polices the ones that never come back.
    fd_of_rank_[static_cast<size_t>(rank)] = -1;
    --joined_;
    return;
  }
  const auto mit = members_.find(rank);
  const bool current = mit != members_.end() && mit->second.fd == fd;  // fd numbers get reused
  if (current) mit->second.fd = -1;
  if (expected) {
    detached_.fetch_add(1, std::memory_order_release);
    // A member that said bye takes part in no further hunt; any walkers it
    // still owns move at the next view. The host's bye closes the world.
    if (current && rank != opts_.host_member) retire_member(rank, /*evicted=*/false);
    return;
  }
  if (spoke_.count(rank) == 0 && opts_.rehello_grace_seconds > 0 && !aborted_) {
    // The member never spoke after its hello — its welcome may have been
    // lost with this connection, in which case its rendezvous retry loop
    // re-hellos any moment now. Hold the slot vacant; check_liveness
    // settles the bill if nobody shows up.
    vacant_since_.emplace(rank, now_seconds());
    return;
  }
  detached_.fetch_add(1, std::memory_order_release);
  if (rank != opts_.host_member) {
    // A dead member is evicted (its walkers move at the wave boundary)
    // instead of aborting the world. The host member's RankComm lives in
    // this process, so its death still falls through to abort.
    last_lost_.store(now_seconds(), std::memory_order_release);
    lost_.fetch_add(1, std::memory_order_release);
    retire_member(rank, /*evicted=*/true);
    return;
  }
  abort_world(util::strf("coordinator: rank %d died (connection lost)", rank));
}

void Coordinator::abort_world(const std::string& reason) {
  if (aborted_) return;
  aborted_ = true;
  stats_.aborts.fetch_add(1, std::memory_order_relaxed);
  const std::string frame = make_abort(reason).dump(0);
  // Collect fds first: enqueue may drop peers on write error, invalidating
  // iterators into peers_.
  std::vector<int> fds;
  fds.reserve(peers_.size());
  for (const auto& [fd, p] : peers_) fds.push_back(fd);
  for (const int fd : fds) {
    if (peers_.count(fd) != 0) enqueue(*peers_.at(fd), frame);
  }
}

void Coordinator::check_liveness(double now) {
  if (aborted_) return;
  maybe_finish_reconnect(now);
  if (reconnect_mode_) return;  // the window has its own clock; no policing yet
  if (!welcomed_) {
    if (opts_.rendezvous_timeout_seconds > 0 && now - started_ > opts_.rendezvous_timeout_seconds)
      abort_world(util::strf("coordinator: rendezvous timed out (%d of %d ranks joined)",
                             joined_, opts_.ranks));
    return;
  }
  // Vacant slots: an unexpected drop of a member that never spoke
  // post-hello is granted this grace window to re-hello before it counts
  // as a death.
  for (auto vit = vacant_since_.begin(); vit != vacant_since_.end();) {
    if (now - vit->second <= opts_.rehello_grace_seconds) {
      ++vit;
      continue;
    }
    const int rank = vit->first;
    vit = vacant_since_.erase(vit);
    detached_.fetch_add(1, std::memory_order_release);
    if (rank == opts_.host_member) {
      abort_world(util::strf("coordinator: rank %d died during its re-hello grace window", rank));
      return;
    }
    retire_member(rank, /*evicted=*/true);
  }
  if (opts_.heartbeat_timeout_seconds <= 0) return;
  std::vector<int> dead_fds;
  for (const auto& [fd, p] : peers_) {
    if (p->rank < 0 || p->said_bye) continue;
    if (now - p->last_seen > opts_.heartbeat_timeout_seconds) {
      if (p->rank == opts_.host_member) {
        abort_world(util::strf("coordinator: rank %d missed heartbeats for %.1fs", p->rank,
                               now - p->last_seen));
        return;
      }
      dead_fds.push_back(fd);  // evicted below; iterating peers_ here
    }
  }
  // Close the silent members' connections; drop_peer turns each into an
  // eviction.
  for (const int fd : dead_fds) drop_peer(fd, /*expected=*/false);
}

}  // namespace cas::dist
