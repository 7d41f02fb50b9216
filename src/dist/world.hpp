// World: one process's membership in a distributed world. Rank 0
// additionally hosts the Coordinator; every member — rank 0 included, over
// loopback — takes part through a RankComm, so the data path is identical
// on all of them. A World serves successive hunts: the host opens each, and
// the members follow them until the host's finalize closes the world.
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

/// The walker partition of a hunt: W walkers over R dense ranks in
/// contiguous slices, remainder to the low ranks. Walker ids [offset_of,
/// offset_of + share_of) belong to rank r, so a merged report's `winner`
/// means the same thing as in a single-process run.
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
  /// Unused (ElasticOptions::control_timeout_seconds bounds the wait for a
  /// rebalance); kept so callers that set it still compile.
  double collective_timeout_seconds = 120.0;
  /// Unused (every world is elastic); kept so callers that set it still
  /// compile.
  bool elastic = false;
  /// Join an existing world late (no rank claim; implies not hosting a
  /// coordinator). A joiner follows the hunts the host opens.
  bool join = false;
  /// Coordinator failover (wire v3). On the host: elect a standby and
  /// mirror the wave machine to it whenever it moves. On everyone else:
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

  [[nodiscard]] RankComm& comm() { return *comm_; }
  /// Coordinator port (the rendezvous address all ranks dialed).
  [[nodiscard]] uint16_t port() const { return port_; }

  /// Host only: open hunt `index` (see Coordinator::open_hunt). No-op on
  /// worlds without a coordinator.
  void open_hunt(uint64_t index, HuntDefinition def);

  /// The elastic runner notes every rebalance frame it adopts: the hunt
  /// and wave it names, and the standby election — where recovery goes
  /// when the communicator fails.
  void note_view(const util::Json& rebalance);
  /// The hunt of the last rebalance noted (0 before the first).
  [[nodiscard]] uint64_t hunt() const { return view_.is_null() ? 0 : frame_u64(view_, "hunt"); }

  /// Recovery path for a member whose connection died: tear down the
  /// failed communicator and dial back in through the join handshake,
  /// naming the hunt it was in. The process comes back as a NEW member —
  /// its old identity is evicted and its walkers flow back via the usual
  /// rebalance — or, when that hunt has finished meanwhile, is told the
  /// outcome and waits for the next hunt. Throws CommError on refusal and
  /// on the coordinator-hosting member, which has nothing left to dial.
  void rejoin();

  /// True while this process hosts the coordinator (rank 0 at launch; the
  /// promoted standby after a failover). The host opens the hunts and
  /// writes the resume manifest and the merged final report.
  [[nodiscard]] bool is_host() const { return coordinator_ != nullptr; }

  /// Probe whether the coordinator this world last rendezvoused with still
  /// accepts connections — distinguishes "my connection broke" (rejoin the
  /// live world) from "the coordinator died" (fail over to the standby).
  [[nodiscard]] bool coordinator_alive() const;

  /// Standby promotion: adopt the pre-bound failover listener, import the
  /// last replicated state_sync this member's communicator captured (and
  /// reopen a hunt this member saw open after it), and re-rendezvous the
  /// local communicator against the freshly promoted coordinator. Throws
  /// CommError when no listener was pre-bound or no state was ever
  /// replicated (the coordinator died before a hunt opened).
  void promote();

  /// Survivor re-rendezvous: dial the promoted standby at the noted
  /// address with the reconnect handshake, preserving this member's stable
  /// id (checkpoint files stay valid). A refused connect fails fast — the
  /// double-failure (coordinator then standby) abort must be prompt.
  /// Throws CommError on refusal.
  void reconnect();

  /// The standby the last noted rebalance elected (-1: none).
  [[nodiscard]] int failover_member() const { return failover_member_; }

  /// The member id of the dead host this world's coordinator replaced
  /// (-1 when never promoted).
  [[nodiscard]] int promoted_from() const;

  /// Fault injection for in-process failover tests: die like a SIGKILLed
  /// host — hard-kill the communicator AND tear down the hosted
  /// coordinator (listener closed, every peer sees EOF). No-op communicator
  /// afterwards; survivors' recovery is the behavior under test.
  void crash();

  /// Clean shutdown: detach the member. The host first closes the world,
  /// then waits briefly for the other members' byes and dropped members'
  /// rejoins before stopping the coordinator.
  void finalize();

  /// Per-member comm counters (+ coordinator counters on the host).
  [[nodiscard]] util::Json stats_json() const;

 private:
  [[nodiscard]] RankCommOptions base_comm_options() const;
  /// The options of the coordinator this process hosts, at launch or
  /// after a promotion.
  [[nodiscard]] CoordinatorOptions coordinator_options() const;
  /// Replace the communicator with one that sends `handshake` (a join or
  /// reconnect) to host:port.
  void redial(util::Json handshake);

  WorldOptions opts_;
  uint16_t port_ = 0;
  std::unique_ptr<Coordinator> coordinator_;  // the host only
  std::unique_ptr<RankComm> comm_;
  // Failover: the idle pre-bound promotion listener (consumed by
  // promote()) and its announced address.
  net::Fd failover_listen_;
  std::string failover_addr_;
  // The last noted rebalance: its hunt and wave, and the standby.
  util::Json view_;
  int failover_member_ = -1;
  std::string standby_addr_;
};

}  // namespace cas::dist
