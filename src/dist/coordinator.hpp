// The rank-0-hosted rendezvous and message router of the distributed
// communicator. Every rank (including rank 0's own RankComm, over
// loopback) connects here, says hello, and blocks until the coordinator
// has seen all R ranks and answers welcome — that is the barrier that
// makes "start cas_run R times" a rendezvous instead of a race. After
// rendezvous the coordinator is a pure star router: msg frames are
// forwarded to their destination rank (to = -1 fans out to every rank
// except the source).
//
// Liveness: ranks heartbeat every interval; a rank that misses the
// timeout, or whose connection drops without a bye, is declared dead and
// the coordinator broadcasts abort to every surviving rank — the clean
// abort path that turns a killed process into a CommError everywhere
// instead of a distributed hang.
//
// Elastic mode (CoordinatorOptions::elastic) layers a membership wave
// machine on top. Members carry STABLE member ids (the initial ranks are
// members 0..R-1; late joiners get the next id) and a DENSE rank — their
// index in the ascending-member-id list of active members — recomputed at
// every wave so the walker share/offset split stays deterministic. Each
// active member reports the current wave with an `epoch` frame; when all
// have reported, the coordinator retires leaving members, admits pending
// joiners, evicts the dead, renumbers, and broadcasts a personalized
// `rebalance` frame. Members also report each solve the moment it happens
// (`solved`); the coordinator keeps the minimum (solve iteration, walker
// id) as the leader, tells every member each time it improves (`leader`),
// and ends the hunt once every member settled against it. Death of a
// member other than the coordinator host downgrades from world-abort to
// eviction at the wave boundary; death of the HOST process takes this
// coordinator with it, and with CoordinatorOptions::standby the survivors
// recover by promoting the replicated standby (the promotion constructor
// below) instead of aborting.
//
// Single-threaded over net::EventLoop + net/frame_io — the same
// machinery, and the same codec path, as the cas_serve front-end.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "util/json.hpp"

namespace cas::dist {

struct CoordinatorOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back with port().
  uint16_t port = 0;
  /// World size: connections claiming rank outside [0, ranks) are refused.
  int ranks = 1;
  /// A rank silent for longer than this (no frame of any kind) after
  /// rendezvous is declared dead. 0 disables heartbeat policing (death is
  /// then detected on connection drop only).
  double heartbeat_timeout_seconds = 10.0;
  /// Rendezvous must complete within this window or the join is aborted.
  double join_timeout_seconds = 30.0;
  /// A rank whose connection drops before it ever spoke (post-hello) may
  /// have lost its welcome in flight; its slot is held vacant this long
  /// for the rendezvous retry to re-hello before the drop is treated as a
  /// death. 0 restores drop-means-dead.
  double rehello_grace_seconds = 2.0;
  size_t max_frame_bytes = net::kDefaultMaxFrame;
  /// Elastic membership (wire protocol v2): epoch-wave rebalancing, late
  /// join admission, graceful leave, and eviction instead of world abort
  /// when a member other than 0 dies.
  bool elastic = false;
  /// Coordinator failover (wire protocol v3): elect a standby (the lowest
  /// non-host dense rank that announced a failover address), mirror the
  /// wave-machine state to it in a state_sync frame after every completed
  /// wave, and advertise the election in every rebalance frame so the
  /// survivors know where to re-rendezvous if this coordinator dies.
  bool standby = false;
  /// Promoted coordinators only: how long the reconnect window stays open
  /// for survivors to re-rendezvous before the missing are evicted and the
  /// world resumes without them.
  double reconnect_grace_seconds = 30.0;
  /// The stable member id of the process hosting this coordinator (0 for
  /// an original launch; the promoted standby's id after a failover). Its
  /// death is world-fatal — everyone else's downgrades to eviction.
  int host_member = 0;
};

/// Router counters, readable live from other threads.
struct CoordinatorStats {
  std::atomic<uint64_t> frames_in{0};
  std::atomic<uint64_t> frames_routed{0};
  std::atomic<uint64_t> broadcasts{0};
  std::atomic<uint64_t> heartbeats{0};
  std::atomic<uint64_t> aborts{0};
  std::atomic<uint64_t> joins{0};
  std::atomic<uint64_t> leaves{0};
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> rebalances{0};
  /// Re-hellos accepted after a welcome was lost in flight (the replay
  /// recovery path of the fault-injection layer).
  std::atomic<uint64_t> rehellos{0};
  /// state_sync frames mirrored to the elected standby.
  std::atomic<uint64_t> state_syncs{0};
  /// Survivors re-admitted through the post-promotion reconnect handshake.
  std::atomic<uint64_t> reconnects{0};

  [[nodiscard]] util::Json to_json() const;
};

class Coordinator {
 public:
  /// Binds and starts the router thread. Throws on bind failure.
  explicit Coordinator(CoordinatorOptions opts);
  /// Standby promotion: adopt a pre-bound listener and the wave-machine
  /// state a state_sync frame replicated, then open a reconnect window for
  /// the survivors. The old host (state's "host_member") is marked evicted;
  /// the world resumes at the replicated wave once every expected survivor
  /// re-rendezvoused (or the window expired and the missing were evicted).
  /// Throws CommError on a malformed state blob.
  Coordinator(CoordinatorOptions opts, net::Fd adopted_listener, const util::Json& state);
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// The port actually bound (resolves port 0).
  [[nodiscard]] uint16_t port() const { return port_; }

  /// Ask the router thread to exit; joined by the destructor (or here).
  void stop();

  [[nodiscard]] const CoordinatorStats& stats() const { return stats_; }
  /// True once every rank has detached cleanly (all byes seen). In elastic
  /// mode: every admitted member's connection is gone (bye or eviction),
  /// and each member lost without a bye was followed by a join — a member
  /// cut off late in a hunt rejoins to learn the outcome — or the last
  /// loss is more than kRejoinGraceSeconds old.
  [[nodiscard]] bool all_detached() const;
  static constexpr double kRejoinGraceSeconds = 1.0;

  /// Rank 0 announces the hunt in progress so late joiners can be
  /// validated (canonical request key) and bootstrapped (master seed +
  /// walker count ride in every rebalance frame). Thread-safe.
  void set_hunt(const std::string& key, uint64_t seed, int walkers);

  /// The member id of the dead host this coordinator was promoted from
  /// (-1 for an original, never-promoted coordinator).
  [[nodiscard]] int promoted_from() const { return promoted_from_; }

 private:
  struct Peer {
    net::Fd fd;
    net::FrameDecoder decoder;
    std::string outbuf;
    size_t out_off = 0;
    int rank = -1;  // -1 until hello; elastic: the member id
    std::string failover_addr;  // announced in hello/join/reconnect
    bool pending_join = false;  // said join, not yet admitted
    bool said_bye = false;
    bool want_write = false;
    double last_seen = 0;

    explicit Peer(net::Fd f, size_t max_frame) : fd(std::move(f)), decoder(max_frame) {}
  };

  /// One member of an elastic world, by stable member id.
  struct Member {
    int fd = -1;       // -1 once gone
    int dense = -1;    // index in the ascending-id active list
    bool leaving = false;   // leave received; retire at wave end
    bool left = false;      // retired gracefully
    bool evicted = false;   // died / timed out
    bool done = false;      // reported its last epoch (max_epochs)
    bool settled = false;   // every walker it owns stopped for good
    bool listed = false;    // its report lists a solve by the wave's end
    int walkers = 0;        // walkers it owned in its report
    bool halt = false;      // asked the world to drain (rank-0 SIGTERM)
    bool reported = false;  // epoch frame for the current wave seen
    bool reconnected = false;  // re-rendezvoused after a promotion
    bool any_ckpt = false;
    uint64_t last_ckpt_epoch = 0;
    std::string failover_addr;  // its pre-bound promotion listener
    util::Json summary;  // its latest epoch frame (final-report rows)
  };

  void run();
  void accept_ready(double now);
  void peer_readable(int fd, double now);
  void peer_writable(int fd);
  void handle_frame(Peer& p, const std::string& payload, double now);
  void route(Peer& from, int dest, const std::string& payload);
  void enqueue(Peer& p, const std::string& payload, bool log = true);
  void drop_peer(int fd, bool expected);
  /// Frames delivered to a rank that never spoke after hello are also
  /// recorded (bounded) so a re-hello can replay the exact transcript.
  void log_for_replay(int rank, const std::string& payload);
  [[nodiscard]] uint64_t msgs_from(int rank) const;
  void abort_world(const std::string& reason);
  void check_liveness(double now);
  void update_interest(Peer& p);

  // Elastic wave machine (router thread only).
  void handle_join(Peer& p, const util::Json& j);
  /// Answer a join that comes too late to take part (pending at, or
  /// arriving after, the final wave) with final_answer_. No-op if the peer
  /// is gone.
  void answer_with_outcome(int fd);
  void handle_epoch(Peer& p, const util::Json& j);
  void handle_solved(const util::Json& j);
  void evict_member(int member, const std::string& why);
  void maybe_complete_wave();
  void complete_wave(bool final);
  /// Renumber the active members, re-elect the standby, and build the
  /// rebalance frame that opens wave `epoch` (your_rank still unset).
  [[nodiscard]] util::Json next_view(uint64_t epoch, bool final, const std::vector<int>& joined);

  // Failover replication + promotion (router thread only, except
  // import_state which runs on the constructing thread before the router
  // starts).
  void elect_standby();
  [[nodiscard]] util::Json export_state();
  void import_state(const util::Json& state);
  void send_state_sync();
  void handle_reconnect(Peer& p, const util::Json& j, double now);
  void maybe_finish_reconnect(double now);
  [[nodiscard]] static bool member_active(const Member& m) { return !m.evicted && !m.left; }
  [[nodiscard]] int active_count() const;
  [[nodiscard]] int hunt_walkers() const {
    std::scoped_lock lock(hunt_mu_);
    return hunt_walkers_;
  }
  [[nodiscard]] int fd_of_dense(int dense) const;

  CoordinatorOptions opts_;
  net::Fd listen_fd_;
  uint16_t port_ = 0;
  net::EventLoop loop_;
  net::Wakeup wakeup_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<int> byes_{0};
  CoordinatorStats stats_;

  std::map<int, std::unique_ptr<Peer>> peers_;       // by fd
  std::vector<int> fd_of_rank_;                      // rank -> fd (-1 absent)
  int joined_ = 0;
  bool welcomed_ = false;
  bool aborted_ = false;
  double started_ = 0;

  // Re-hello recovery (router thread only). A rank retries rendezvous only
  // while it has not yet seen its welcome — so the first post-hello frame
  // from a rank proves the welcome landed, and until then every frame sent
  // its way is logged (bounded) so a fresh connection can be replayed the
  // exact transcript, welcome included.
  static constexpr size_t kReplayCapBytes = size_t{4} << 20;  // per rank
  std::map<int, uint64_t> msgs_from_rank_;           // post-hello frames seen
  std::map<int, std::vector<std::string>> replay_log_;
  std::map<int, size_t> replay_bytes_;
  std::set<int> replay_overflow_;   // log overflowed: re-hello unrecoverable
  std::map<int, double> vacant_since_;  // rank -> drop time, awaiting re-hello

  // Elastic state (router thread only, except the atomics and hunt_mu_).
  std::map<int, Member> members_;  // by stable member id
  std::vector<int> pending_join_fds_;
  int next_member_ = 0;
  uint64_t wave_ = 0;
  /// Waves are absolute epoch indices: a world resumed from a checkpoint
  /// reports its first epoch as manifest_epoch + 1, so the coordinator
  /// anchors wave_ to the FIRST epoch frame it sees instead of assuming 0.
  bool wave_anchored_ = false;
  int64_t ckpt_epoch_ = -1;  // last wave every active member checkpointed
  bool hunting_ = true;      // false once the final rebalance went out
  /// Set with the final wave: a welcome naming no member (rank -1) and the
  /// final rebalance with your_rank -1, winner included.
  std::vector<std::string> final_answer_;
  /// The leader: the minimum (solve iteration, walker id) over every solved
  /// frame, with its member and stats. `decided_` latches once a wave
  /// proves nobody can beat it; only then does a final name it.
  bool have_leader_ = false;
  uint64_t leader_iters_ = 0;
  uint64_t leader_id_ = 0;
  int winner_member_ = -1;
  util::Json winner_stats_;
  bool decided_ = false;
  std::atomic<int> admitted_{0};
  std::atomic<int> detached_{0};
  std::atomic<int> lost_{0};         // members lost without a bye while hunting
  std::atomic<int> joins_seen_{0};   // joins admitted or answered with the outcome
  std::atomic<double> last_lost_{0};  // when the latest of them was lost
  // Failover state. standby_member_/_addr_ are re-elected every wave and
  // broadcast in the rebalance frames; reconnect_mode_ is true only on a
  // freshly promoted coordinator until the survivor window settles.
  int standby_member_ = -1;
  std::string standby_addr_;
  int promoted_from_ = -1;
  bool reconnect_mode_ = false;
  double reconnect_started_ = 0;
  mutable std::mutex hunt_mu_;
  std::string hunt_key_;
  uint64_t hunt_seed_ = 0;
  int hunt_walkers_ = 0;

  std::thread thread_;
};

}  // namespace cas::dist
