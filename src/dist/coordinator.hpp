// The coordinator of a distributed world, hosted by one member (rank 0 at
// launch). Every member (the host's own RankComm included, over loopback)
// connects here, says hello, and blocks until the coordinator has seen all
// R initial ranks and answers welcome — that is the barrier that makes
// "start cas_run R times" a rendezvous instead of a race.
//
// A world serves successive hunts. The host opens each with open_hunt: the
// wave machine re-arms at the hunt's first epoch with no leader, while
// membership, the standby election and heartbeats carry over, and every
// member receives the opening rebalance — the view it starts its walkers
// from. Members carry STABLE member ids (the initial ranks are members
// 0..R-1; late joiners get the next id) and a DENSE rank — their index in
// the ascending-member-id list of active members — recomputed at every
// wave so the walker share/offset split stays deterministic. Each active
// member reports the current wave with an `epoch` frame; when all have
// reported, the coordinator retires leaving members, admits pending
// joiners, renumbers, and sends a personalized `rebalance` frame. Members
// also report each solve the moment it happens (`solved`); the coordinator
// keeps the minimum (solve iteration, walker id) as the leader, tells every
// member each time it improves (`leader`), and ends the hunt once every
// member settled against it. Frames stamped with another hunt are dropped.
//
// Liveness: members heartbeat every interval. A member that misses the
// timeout, or whose connection drops without a bye, is evicted; one whose
// connection closes after a bye is retired — during a hunt either's
// walkers move at the wave boundary. Death of the HOST process takes this
// coordinator with it; with CoordinatorOptions::standby the survivors
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
  /// Initial world size: connections claiming rank outside [0, ranks) are
  /// refused.
  int ranks = 1;
  /// A member silent for longer than this (no frame of any kind) after
  /// rendezvous is evicted. 0 disables heartbeat policing (death is then
  /// detected on connection drop only).
  double heartbeat_timeout_seconds = 10.0;
  /// Rendezvous must complete within this window or the world is aborted.
  double join_timeout_seconds = 30.0;
  /// A member whose connection drops before it ever spoke (post-hello) may
  /// have lost its welcome in flight; its slot is held vacant this long
  /// for the rendezvous retry to re-hello before the drop counts as a
  /// death. 0 restores drop-means-dead.
  double rehello_grace_seconds = 2.0;
  size_t max_frame_bytes = net::kDefaultMaxFrame;
  /// Coordinator failover (wire protocol v3): elect a standby (the lowest
  /// non-host dense rank that announced a failover address), mirror the
  /// wave-machine state to it in a state_sync frame whenever it moves, and
  /// advertise the election in every rebalance frame so the survivors know
  /// where to re-rendezvous if this coordinator dies.
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

/// Coordinator counters, readable live from other threads.
struct CoordinatorStats {
  std::atomic<uint64_t> frames_in{0};
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
  /// Binds and starts the coordinator thread. Throws on bind failure.
  explicit Coordinator(CoordinatorOptions opts);
  /// Standby promotion: adopt a pre-bound listener and the wave-machine
  /// state a state_sync frame replicated, then open a reconnect window for
  /// the survivors. The old host (state's "host_member") is marked evicted;
  /// a hunt in progress resumes at the replicated wave once every expected
  /// survivor re-rendezvoused (or the window expired and the missing were
  /// evicted), and a hunt opened meanwhile waits for the window too.
  /// Throws CommError on a malformed state blob.
  Coordinator(CoordinatorOptions opts, net::Fd adopted_listener, const util::Json& state);
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// The port actually bound (resolves port 0).
  [[nodiscard]] uint16_t port() const { return port_; }

  /// Ask the coordinator thread to exit; joined by the destructor (or
  /// here). Joiners still waiting for a hunt are refused first.
  void stop();

  [[nodiscard]] const CoordinatorStats& stats() const { return stats_; }
  /// True once every admitted member's connection is gone (bye or
  /// eviction), and each member lost without a bye was followed by a join
  /// — a member cut off late in a hunt rejoins to learn the outcome — or
  /// the last loss is more than kRejoinGraceSeconds old.
  [[nodiscard]] bool all_detached() const;
  static constexpr double kRejoinGraceSeconds = 1.0;

  /// Host only: open hunt `index` — canonical request key (fresh joiners
  /// must match it), master seed and walker count (every member adopts
  /// them from the opening rebalance), and the epoch it starts at (a
  /// resume's manifest epoch + 1, else 0). No-op when hunt `index` or a
  /// later one was opened already (a promoted coordinator resumes the hunt
  /// it replicated). A hunt still running is ended undecided first.
  /// Thread-safe; the coordinator thread sends the opening.
  void open_hunt(uint64_t index, const std::string& key, uint64_t seed, int walkers,
                 uint64_t epoch);

  /// The member id of the dead host this coordinator was promoted from
  /// (-1 for an original, never-promoted coordinator).
  [[nodiscard]] int promoted_from() const { return promoted_from_; }

 private:
  struct Peer {
    net::Fd fd;
    net::FrameDecoder decoder;
    std::string outbuf;
    size_t out_off = 0;
    int rank = -1;  // the member id; -1 until hello or admission
    std::string failover_addr;  // announced in hello/join/reconnect
    bool pending_join = false;  // said join, not yet admitted
    bool rejoin = false;   // its join named the hunt it left: it stays for the next hunt
    std::string join_key;  // a fresh joiner's key, checked when a hunt opens
    bool said_bye = false;
    bool want_write = false;
    double last_seen = 0;

    explicit Peer(net::Fd f, size_t max_frame) : fd(std::move(f)), decoder(max_frame) {}
  };

  /// One member of the world, by stable member id.
  struct Member {
    int fd = -1;       // -1 once gone
    int dense = -1;    // index in the ascending-id active list
    bool leaving = false;   // leave received; retire at wave end
    bool left = false;      // retired gracefully
    bool evicted = false;   // died / timed out
    bool reconnected = false;  // re-rendezvoused after a promotion
    std::string failover_addr;  // its pre-bound promotion listener
    // This hunt's reports; cleared when a hunt opens.
    bool done = false;      // reported its last epoch (max_epochs)
    bool settled = false;   // every walker it owns stopped for good
    bool listed = false;    // its report lists a solve by the wave's end
    int walkers = 0;        // walkers it owned in its report
    bool halt = false;      // asked the world to drain (rank-0 SIGTERM)
    bool reported = false;  // epoch frame for the current wave seen
    bool any_ckpt = false;
    uint64_t last_ckpt_epoch = 0;
    util::Json summary;  // its latest epoch frame (final-report rows)
  };

  /// What a hunt is: its index, request key, seed, walker count and the
  /// epoch it opens at.
  struct Hunt {
    uint64_t index = 0;
    std::string key;
    uint64_t seed = 0;
    int walkers = 0;
    uint64_t epoch = 0;
  };

  void run();
  void accept_ready(double now);
  void peer_readable(int fd, double now);
  void peer_writable(int fd);
  void handle_frame(Peer& p, const std::string& payload, double now);
  void enqueue(Peer& p, const std::string& payload, bool log = true);
  /// Deliver to a member's connection, or into its replay transcript while
  /// its slot is vacant awaiting a re-hello.
  void send_to_member(int member, const std::string& payload);
  void drop_peer(int fd, bool expected);
  /// Frames delivered to a rank that never spoke after hello are also
  /// recorded (bounded) so a re-hello can replay the exact transcript.
  void log_for_replay(int rank, const std::string& payload);
  [[nodiscard]] uint64_t msgs_from(int rank) const;
  void abort_world(const std::string& reason);
  void check_liveness(double now);
  void update_interest(Peer& p);

  // The wave machine (coordinator thread only).
  void handle_join(Peer& p, const util::Json& j);
  void pend_join(Peer& p, const util::Json& j, std::string key, bool rejoin);
  /// Send the last finished hunt's outcome (final_answer_) to a joiner.
  /// No-op if the peer is gone; a write error may drop it.
  void answer_with_outcome(int fd);
  void handle_epoch(const util::Json& j);
  void handle_solved(const util::Json& j);
  /// Take an active member out of the world — evicted (it died) or left
  /// (it said bye) — and complete the wave if it was the last one owed.
  void retire_member(int member, bool evicted);
  /// Open the hunt open_hunt() queued, unless a promotion's reconnect
  /// window is still open.
  void maybe_open();
  void maybe_complete_wave();
  void complete_wave(bool final);
  /// Send every member the view that opens wave `epoch`: retire the
  /// leaving and admit pending joiners first (or, for the final view, end
  /// the hunt and answer them with its outcome).
  void send_view(uint64_t epoch, bool final);
  /// Renumber the active members, re-elect the standby, and build the
  /// rebalance frame that opens wave `epoch` (your_rank still unset).
  [[nodiscard]] util::Json next_view(uint64_t epoch, bool final, const std::vector<int>& joined);

  // Failover replication + promotion (coordinator thread only, except
  // import_state which runs on the constructing thread before the thread
  // starts).
  void elect_standby();
  [[nodiscard]] util::Json export_state();
  void import_state(const util::Json& state);
  void send_state_sync();
  void handle_reconnect(Peer& p, const util::Json& j, double now);
  void maybe_finish_reconnect(double now);
  [[nodiscard]] static bool member_active(const Member& m) { return !m.evicted && !m.left; }
  [[nodiscard]] int active_count() const;

  CoordinatorOptions opts_;
  net::Fd listen_fd_;
  uint16_t port_ = 0;
  net::EventLoop loop_;
  net::Wakeup wakeup_;
  std::atomic<bool> stop_requested_{false};
  CoordinatorStats stats_;

  std::map<int, std::unique_ptr<Peer>> peers_;       // by fd
  std::vector<int> fd_of_rank_;                      // rank -> fd (-1 absent)
  int joined_ = 0;
  bool welcomed_ = false;
  bool aborted_ = false;
  double started_ = 0;

  // Re-hello recovery (coordinator thread only). A rank retries rendezvous
  // only while it has not yet seen its welcome — so the first post-hello
  // frame from a rank (its first heartbeat, sent the moment the welcome
  // lands) proves the welcome arrived, and until then every frame sent its
  // way is logged (bounded) so a fresh connection can be replayed the exact
  // transcript, welcome included.
  static constexpr size_t kReplayCapBytes = size_t{4} << 20;  // per rank
  std::map<int, uint64_t> msgs_from_rank_;           // post-hello frames seen
  std::map<int, std::vector<std::string>> replay_log_;
  std::map<int, size_t> replay_bytes_;
  std::set<int> replay_overflow_;   // log overflowed: re-hello unrecoverable
  std::map<int, double> vacant_since_;  // rank -> drop time, awaiting re-hello

  // The wave machine (coordinator thread only, except the atomics).
  std::map<int, Member> members_;  // by stable member id
  std::vector<int> pending_join_fds_;
  int next_member_ = 0;
  Hunt hunt_;                // the hunt running, or the last one
  bool hunting_ = false;     // hunt_ is open: its final rebalance has not gone out
  uint64_t wave_ = 0;
  int64_t ckpt_epoch_ = -1;  // last wave every active member checkpointed
  /// The last finished hunt's outcome, for a late rejoin: a welcome naming
  /// no member (rank -1) and the final rebalance with your_rank -1, winner
  /// included.
  std::vector<std::string> final_answer_;
  uint64_t final_hunt_ = 0;
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
  std::atomic<int> lost_{0};         // members lost without a bye
  std::atomic<int> joins_seen_{0};   // joins admitted or answered with the outcome
  std::atomic<double> last_lost_{0};  // when the latest of them was lost
  // Failover state. standby_member_/_addr_ are re-elected every view and
  // broadcast in the rebalance frames; reconnect_mode_ is true only on a
  // freshly promoted coordinator until the survivor window settles.
  int standby_member_ = -1;
  std::string standby_addr_;
  int promoted_from_ = -1;
  bool reconnect_mode_ = false;
  double reconnect_started_ = 0;

  std::mutex open_mu_;
  Hunt opened_;               // the latest hunt opened or queued
  bool open_pending_ = false;  // opened_ waits for the coordinator thread

  std::thread thread_;
};

}  // namespace cas::dist
