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
    CoordinatorOptions co;
    co.host = opts_.host;
    co.port = opts_.port;
    co.ranks = opts_.ranks;
    co.heartbeat_timeout_seconds = opts_.heartbeat_timeout_seconds;
    co.join_timeout_seconds = opts_.connect_timeout_seconds * 2;
    co.elastic = opts_.elastic;
    co.standby = opts_.standby;
    co.reconnect_grace_seconds = opts_.connect_timeout_seconds * 2;
    coordinator_ = std::make_unique<Coordinator>(co);
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
  rc.join = opts_.join;
  rc.hunt_key = opts_.hunt_key;
  comm_ = std::make_unique<RankComm>(rc);
}

RankCommOptions World::base_comm_options() const {
  RankCommOptions rc;
  rc.host = opts_.host;
  rc.port = port_;
  rc.connect_timeout_seconds = opts_.connect_timeout_seconds;
  rc.heartbeat_interval_seconds = opts_.heartbeat_interval_seconds;
  rc.collective_timeout_seconds = opts_.collective_timeout_seconds;
  rc.failover_addr = failover_addr_;
  return rc;
}

void World::set_hunt(const std::string& key, uint64_t seed, int walkers) {
  if (coordinator_ != nullptr) coordinator_->set_hunt(key, seed, walkers);
}

void World::rejoin(const std::string& hunt_key) {
  if (coordinator_ != nullptr)
    throw CommError("world: the coordinator-hosting member cannot rejoin its own world");
  if (comm_ != nullptr) comm_->finalize();  // joins threads; idempotent on a failed comm
  RankCommOptions rc = base_comm_options();
  rc.rank = -1;
  rc.ranks = 0;
  rc.join = true;
  rc.hunt_key = hunt_key;
  comm_ = std::make_unique<RankComm>(rc);
  opts_.join = true;
  opts_.hunt_key = hunt_key;
  opts_.rank = -1;
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
        "(the coordinator died before completing wave 0)");
  const int member = comm_->member();
  std::string key;
  if (const util::Json* kj = state->find("key"); kj != nullptr && kj->is_string())
    key = kj->as_string();
  comm_->finalize();

  CoordinatorOptions co;
  co.host = opts_.host;
  co.ranks = opts_.ranks;
  co.heartbeat_timeout_seconds = opts_.heartbeat_timeout_seconds;
  co.join_timeout_seconds = opts_.connect_timeout_seconds * 2;
  co.elastic = true;
  co.standby = opts_.standby;
  co.reconnect_grace_seconds = opts_.connect_timeout_seconds * 2;
  co.host_member = member;
  coordinator_ = std::make_unique<Coordinator>(co, std::move(failover_listen_), *state);
  port_ = coordinator_->port();
  opts_.port = port_;
  failover_addr_.clear();  // the host is never its own standby
  failover_member_ = -1;
  failover_addr_cache_.clear();

  // Re-rendezvous our own communicator against the coordinator we now
  // host, keeping the stable member id — same handshake the survivors use.
  RankCommOptions rc = base_comm_options();
  rc.rank = -1;
  rc.ranks = 0;
  rc.reconnect = true;
  rc.reconnect_member = member;
  rc.reconnect_epoch = frame_u64(sync, "epoch");
  rc.hunt_key = key;
  comm_ = std::make_unique<RankComm>(rc);
  opts_.rank = -1;
  opts_.hunt_key = key;
}

void World::reconnect(const std::string& addr, const std::string& hunt_key) {
  if (coordinator_ != nullptr)
    throw CommError("world: the coordinator-hosting member cannot reconnect elsewhere");
  const auto [host, port] = split_addr(addr);
  const int member = comm_ != nullptr ? comm_->member() : -1;
  if (member < 0) throw CommError("world: no stable member id to reconnect with");
  if (comm_ != nullptr) comm_->finalize();
  opts_.host = host;
  port_ = port;
  opts_.port = port;
  RankCommOptions rc = base_comm_options();
  rc.rank = -1;
  rc.ranks = 0;
  rc.reconnect = true;
  rc.reconnect_member = member;
  rc.reconnect_epoch = failover_epoch_;
  rc.hunt_key = hunt_key;
  // The standby's listener existed before the hunt started, so a refusal
  // proves the standby process is ALSO dead — double failure, abort now.
  rc.fail_fast_refused = true;
  comm_ = std::make_unique<RankComm>(rc);
  opts_.rank = -1;
  opts_.hunt_key = hunt_key;
}

void World::note_failover(int standby_member, const std::string& standby_addr, uint64_t epoch) {
  failover_member_ = standby_member;
  failover_addr_cache_ = standby_addr;
  failover_epoch_ = epoch;
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
  if (comm_ != nullptr) comm_->finalize();
  if (coordinator_ != nullptr) {
    // Give the other ranks a moment to say bye so their detach is clean
    // rather than racing the router teardown, and a member whose connection
    // dropped a moment to rejoin and learn the outcome.
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
