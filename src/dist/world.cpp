#include "dist/world.hpp"

#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "net/socket.hpp"

namespace cas::dist {

namespace {

// "host:port" → pair; throws CommError on anything unparseable.
std::pair<std::string, uint16_t> split_addr(const std::string& addr) {
  const size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= addr.size())
    throw CommError("world: malformed failover address '" + addr + "'");
  const std::string host = addr.substr(0, colon);
  unsigned long port = 0;
  try {
    port = std::stoul(addr.substr(colon + 1));
  } catch (const std::exception&) {
    throw CommError("world: malformed failover address '" + addr + "'");
  }
  if (port == 0 || port > 65535)
    throw CommError("world: malformed failover address '" + addr + "'");
  return {host, static_cast<uint16_t>(port)};
}

}  // namespace

World::World(WorldOptions opts, const std::function<void(uint16_t)>& on_listening)
    : opts_(std::move(opts)) {
  if (opts_.rank == 0 && !opts_.join) {
    coordinator_ = std::make_unique<Coordinator>(coordinator_options());
    port_ = coordinator_->port();
    if (on_listening) on_listening(port_);
  } else {
    port_ = opts_.port;
    if (opts_.standby) {
      // Pre-bind the promotion listener NOW, while everything is healthy:
      // its address rides in the hello/join frame, and survivors that race
      // a promotion park in this socket's backlog instead of being
      // refused. Best-effort — a bind failure just means this member is
      // not standby-eligible.
      std::string err;
      net::Fd lfd = net::listen_tcp(opts_.host, 0, /*backlog=*/16, err);
      if (lfd.valid()) {
        failover_addr_ = opts_.host + ":" + std::to_string(net::local_port(lfd.get()));
        failover_listen_ = std::move(lfd);
      } else {
        std::fprintf(stderr, "[world] standby listener bind failed (%s); not standby-eligible\n",
                     err.c_str());
      }
    }
  }
  RankCommOptions rc = base_comm_options();
  rc.rank = opts_.rank;
  rc.ranks = opts_.ranks;
  if (opts_.join) rc.handshake = make_join(0);
  comm_ = std::make_unique<RankComm>(rc);
}

RankCommOptions World::base_comm_options() const {
  RankCommOptions rc;
  rc.host = opts_.host;
  rc.port = port_;
  rc.connect_timeout_seconds = opts_.connect_timeout_seconds;
  rc.heartbeat_interval_seconds = opts_.heartbeat_interval_seconds;
  rc.failover_addr = failover_addr_;
  return rc;
}

CoordinatorOptions World::coordinator_options() const {
  CoordinatorOptions co;
  co.host = opts_.host;
  co.port = opts_.port;  // a promoted coordinator adopts its listener instead
  co.ranks = opts_.ranks;
  co.heartbeat_timeout_seconds = opts_.heartbeat_timeout_seconds;
  co.rendezvous_timeout_seconds = opts_.connect_timeout_seconds * 2;
  co.standby = opts_.standby;
  return co;
}

void World::redial(util::Json handshake) {
  if (comm_ != nullptr) comm_->finalize();  // joins its reader; idempotent on a failed comm
  RankCommOptions rc = base_comm_options();
  rc.rank = -1;
  rc.ranks = 0;
  rc.handshake = std::move(handshake);
  comm_ = std::make_unique<RankComm>(rc);
  opts_.rank = -1;
}

void World::open_hunt(uint64_t index, HuntDefinition def) {
  if (coordinator_ != nullptr) coordinator_->open_hunt(index, std::move(def));
}

void World::note_view(const util::Json& rebalance) {
  view_ = rebalance;
  const util::Json* sa = rebalance.find("standby_addr");
  if (rebalance.find("standby_member") == nullptr || sa == nullptr || !sa->is_string()) return;
  failover_member_ = frame_int(rebalance, "standby_member");
  standby_addr_ = sa->as_string();
}

void World::rejoin() {
  if (coordinator_ != nullptr)
    throw CommError("world: the coordinator-hosting member cannot rejoin its own world");
  redial(make_join(hunt()));
}

bool World::coordinator_alive() const {
  std::string err;
  net::Fd probe = net::connect_tcp(opts_.host, port_, err);
  return probe.valid();
}

void World::promote() {
  if (coordinator_ != nullptr)
    throw CommError("world: already hosting the coordinator");
  if (!failover_listen_.valid())
    throw CommError("world: no pre-bound failover listener (standby disabled or bind failed)");
  const util::Json sync = comm_ != nullptr ? comm_->latest_state_sync() : util::Json();
  const util::Json* state = sync.is_object() ? sync.find("state") : nullptr;
  if (state == nullptr || !state->is_object())
    throw CommError(
        "world: no replicated coordinator state to promote from "
        "(the coordinator died before opening a hunt)");
  const int member = comm_->member();
  comm_->finalize();

  CoordinatorOptions co = coordinator_options();
  co.host_member = member;
  coordinator_ = std::make_unique<Coordinator>(co, std::move(failover_listen_), *state);
  // The host died between a hunt's opening and its mirror: open it again.
  if (hunt() > frame_u64(*state, "hunt")) coordinator_->open_hunt(hunt(), definition_from(view_));
  port_ = coordinator_->port();
  opts_.port = port_;
  failover_addr_.clear();  // the host is never its own standby
  failover_member_ = -1;

  // Re-rendezvous our own communicator against the coordinator we now
  // host, keeping the stable member id — same handshake the survivors use.
  redial(make_reconnect(member, frame_u64(*state, "hunt"), frame_u64(sync, "epoch")));
}

void World::reconnect() {
  if (coordinator_ != nullptr)
    throw CommError("world: the coordinator-hosting member cannot reconnect elsewhere");
  const auto [host, port] = split_addr(standby_addr_);
  const int member = comm_ != nullptr ? comm_->member() : -1;
  if (member < 0) throw CommError("world: no stable member id to reconnect with");
  opts_.host = host;
  port_ = port;
  opts_.port = port;
  redial(make_reconnect(member, hunt(), frame_u64(view_, "epoch")));
}

int World::promoted_from() const {
  return coordinator_ != nullptr ? coordinator_->promoted_from() : -1;
}

void World::crash() {
  if (comm_ != nullptr) comm_->hard_kill();
  coordinator_.reset();  // listener + every peer fd closed: survivors see EOF
  failover_listen_.reset();
}

void World::finalize() {
  if (coordinator_ != nullptr) coordinator_->close();
  if (comm_ != nullptr) comm_->finalize();
  if (coordinator_ != nullptr) {
    // Give the other members a moment to say bye so their detach is clean
    // rather than racing the coordinator teardown, and a member whose
    // connection dropped a moment to rejoin and learn the outcome.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!coordinator_->all_detached() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    coordinator_->stop();
  }
}

util::Json World::stats_json() const {
  util::Json j = comm_ != nullptr ? comm_->stats_json() : util::Json::object();
  if (coordinator_ != nullptr) j["coordinator"] = coordinator_->stats().to_json();
  return j;
}

}  // namespace cas::dist
