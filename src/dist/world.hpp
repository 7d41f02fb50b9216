// World: one process's membership in a multi-process communicator. Rank 0
// additionally hosts the Coordinator (rendezvous + router); every rank —
// rank 0 included, over loopback — participates through a RankComm, so
// the data path is identical on all ranks.
//
// Construction order matters for launchers: rank 0 binds the coordinator
// FIRST and reports the actual port through `on_listening` BEFORE blocking
// in the rendezvous, which is the hook cas_run's single-command loopback
// launcher uses to fork the sibling ranks with --coordinator=host:port.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "dist/coordinator.hpp"
#include "dist/rank_comm.hpp"
#include "util/json.hpp"

namespace cas::dist {

/// The walker partition of every distributed runner: W walkers over R
/// dense ranks in contiguous slices, remainder to the low ranks. Walker ids
/// [offset_of, offset_of + share_of) belong to rank r, so a merged report's
/// `winner` means the same thing as in a single-process run.
inline int share_of(int walkers, int ranks, int rank) {
  return walkers / ranks + (rank < walkers % ranks ? 1 : 0);
}

inline int offset_of(int walkers, int ranks, int rank) {
  return rank * (walkers / ranks) + std::min(rank, walkers % ranks);
}

struct WorldOptions {
  int rank = 0;
  int ranks = 1;
  /// Rank 0: the bind address (port 0 = ephemeral). Ranks > 0: the
  /// coordinator's address as launched.
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  double connect_timeout_seconds = 15.0;
  double heartbeat_interval_seconds = 1.0;
  double heartbeat_timeout_seconds = 10.0;
  double collective_timeout_seconds = 120.0;
  /// Elastic membership: the rank-0 coordinator evicts dead members at
  /// epoch boundaries instead of aborting, and admits late joiners.
  bool elastic = false;
  /// Join an existing elastic world late (no rank claim; implies not
  /// hosting a coordinator). `hunt_key` authenticates the request.
  bool join = false;
  std::string hunt_key;
  /// Coordinator failover (wire v3). On the host: elect a standby and
  /// mirror the wave machine to it every completed wave. On everyone else:
  /// pre-bind an idle promotion listener and announce its address, so this
  /// member is standby-eligible and can promote itself if the coordinator
  /// dies. Off by default — without it, the host's death is world-fatal.
  bool standby = false;
};

class World {
 public:
  /// Joins (and on rank 0 first hosts) the world. `on_listening` runs on
  /// rank 0 after the coordinator is bound, before the blocking
  /// rendezvous — spawn the other ranks / write the port file there.
  /// Throws CommError when the rendezvous fails.
  explicit World(WorldOptions opts,
                 const std::function<void(uint16_t port)>& on_listening = nullptr);

  [[nodiscard]] int rank() const { return opts_.rank; }
  [[nodiscard]] int size() const { return opts_.ranks; }
  [[nodiscard]] RankComm& comm() { return *comm_; }
  /// Coordinator port (the rendezvous address all ranks dialed).
  [[nodiscard]] uint16_t port() const { return port_; }

  /// Rank 0 announces the hunt so the coordinator can validate and
  /// bootstrap late joiners. No-op on worlds without a coordinator.
  void set_hunt(const std::string& key, uint64_t seed, int walkers);

  /// Recovery path for an elastic member whose connection died mid-hunt:
  /// tear down the failed communicator and dial back in through the late-
  /// join handshake (`hunt_key` re-authenticates). The process comes back
  /// as a NEW member — its old identity is evicted at the wave boundary and
  /// its walkers flow back via the usual rebalance (or, when the hunt has
  /// completed meanwhile, the final rebalance answers the join). Throws
  /// CommError on refusal (key mismatch) and on the coordinator-hosting
  /// member, which has nothing left to dial.
  void rejoin(const std::string& hunt_key);

  /// True while this process hosts the coordinator (rank 0 at launch; the
  /// promoted standby after a failover). The host writes the resume
  /// manifest and the merged final report.
  [[nodiscard]] bool is_host() const { return coordinator_ != nullptr; }

  /// Probe whether the coordinator this world last rendezvoused with still
  /// accepts connections — distinguishes "my connection broke" (rejoin the
  /// live world) from "the coordinator died" (fail over to the standby).
  [[nodiscard]] bool coordinator_alive() const;

  /// Standby promotion: adopt the pre-bound failover listener, import the
  /// last replicated state_sync this member's communicator captured, and
  /// re-rendezvous the local communicator against the freshly promoted
  /// coordinator. Throws CommError when no listener was pre-bound or no
  /// state was ever replicated (e.g. the coordinator died before wave 0
  /// completed).
  void promote();

  /// Survivor re-rendezvous: dial the promoted standby at `addr`
  /// ("host:port") with the epoch-stamped reconnect handshake, preserving
  /// this member's stable id (checkpoint files stay valid). A refused
  /// connect fails fast — the double-failure (coordinator then standby)
  /// abort must be prompt. Throws CommError on refusal.
  void reconnect(const std::string& addr, const std::string& hunt_key);

  /// The elastic runner caches the standby election and the latest wave
  /// each rebalance frame announced, so the recovery path in solve_elastic
  /// knows where to go when the communicator fails mid-epoch.
  void note_failover(int standby_member, const std::string& standby_addr, uint64_t epoch);
  [[nodiscard]] int failover_member() const { return failover_member_; }
  [[nodiscard]] const std::string& failover_addr() const { return failover_addr_cache_; }

  /// The member id of the dead host this world's coordinator replaced
  /// (-1 when never promoted).
  [[nodiscard]] int promoted_from() const;

  /// Fault injection for in-process failover tests: die like a SIGKILLed
  /// host — hard-kill the communicator AND tear down the hosted
  /// coordinator (listener closed, every peer sees EOF). No-op communicator
  /// afterwards; survivors' recovery is the behavior under test.
  void crash();

  /// Clean shutdown: detach the rank; rank 0 waits briefly for the other
  /// ranks' byes and dropped members' rejoins before stopping the router.
  void finalize();

  /// Per-rank comm counters (+ router counters on rank 0).
  [[nodiscard]] util::Json stats_json() const;

 private:
  [[nodiscard]] RankCommOptions base_comm_options() const;

  WorldOptions opts_;
  uint16_t port_ = 0;
  std::unique_ptr<Coordinator> coordinator_;  // the host only
  std::unique_ptr<RankComm> comm_;
  // Failover: the idle pre-bound promotion listener (consumed by
  // promote()), its announced address, and the election/epoch cache the
  // elastic runner keeps fresh from rebalance frames.
  net::Fd failover_listen_;
  std::string failover_addr_;
  int failover_member_ = -1;
  std::string failover_addr_cache_;
  uint64_t failover_epoch_ = 0;
};

}  // namespace cas::dist
