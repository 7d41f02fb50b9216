// The coordinator of a distributed world, hosted by one member (rank 0 at
// launch). Every member (the host's own RankComm included, over loopback)
// connects here, says hello, and blocks until the coordinator has seen all
// R initial ranks and answers welcome — that is the barrier that makes
// "start cas_run R times" a rendezvous instead of a race.
//
// A world serves successive hunts. The host opens each with open_hunt: the
// wave machine re-arms at the hunt's first epoch with no leader, while
// membership, the standby election and heartbeats carry over, and every
// member receives the opening rebalance — the view it builds its walkers
// from, since every view carries the hunt's definition; the host's close
// ends the world. Members carry STABLE member ids (the initial ranks are
// members 0..R-1; late joiners get the next id) and a DENSE rank — their
// index in the ascending-member-id list of active members — recomputed at
// every wave so the walker share/offset split stays deterministic. Each active
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

#include "dist/wire.hpp"
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
  /// How long a rendezvous may take: every initial rank must say hello
  /// within it or the world is aborted, and a promoted coordinator keeps
  /// its reconnect window open this long before the survivors still
  /// missing are evicted and the world resumes without them.
  double rendezvous_timeout_seconds = 30.0;
  /// A member whose connection drops before it ever spoke (post-hello) may
  /// have lost its welcome in flight; its slot is held vacant this long
  /// for the rendezvous retry to re-hello before the drop counts as a
  /// death. 0 restores drop-means-dead.
  double rehello_grace_seconds = 2.0;
  /// Coordinator failover (wire protocol v3): elect a standby (the lowest
  /// non-host dense rank that announced a failover address), mirror the
  /// wave-machine state to it in a state_sync frame whenever it moves, and
  /// advertise the election in every rebalance frame so the survivors know
  /// where to re-rendezvous if this coordinator dies.
  bool standby = false;
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
  /// Re-hellos accepted after a welcome was lost in flight, each caught up
  /// from the coordinator's state.
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
  /// here).
  void stop();

  [[nodiscard]] const CoordinatorStats& stats() const { return stats_; }
  /// True once every admitted member's connection is gone (bye or
  /// eviction), and each member lost without a bye was followed by a join
  /// — a member cut off late in a hunt rejoins to learn the outcome — or
  /// the last loss is more than kRejoinGraceSeconds old.
  [[nodiscard]] bool all_detached() const;
  static constexpr double kRejoinGraceSeconds = 1.0;

  /// Host only: open hunt `index` with the definition every view carries,
  /// at its first epoch (a resume's manifest wave + 1, else 0). No-op when
  /// hunt `index` or a later one was opened already (a promoted coordinator
  /// resumes the hunt it replicated). A hunt still running is ended
  /// undecided first. Thread-safe.
  void open_hunt(uint64_t index, HuntDefinition def);

  /// Host only: the world is done — send every connection a close frame
  /// and open no further hunt. Thread-safe.
  void close();

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
    bool said_bye = false;
    bool want_write = false;
    double last_seen = 0;

    explicit Peer(net::Fd f) : fd(std::move(f)) {}
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

  /// What a hunt is: its index and definition.
  struct Hunt {
    uint64_t index = 0;
    HuntDefinition def;
  };

  void run();
  void accept_ready(double now);
  void peer_readable(int fd, double now);
  void peer_writable(int fd);
  void handle_frame(Peer& p, const std::string& payload, double now);
  void enqueue(Peer& p, const std::string& payload);
  /// Deliver to a member's connection, if it has one.
  void send_to_member(int member, const std::string& payload);
  /// Deliver to every connection.
  void broadcast(const std::string& payload);
  void drop_peer(int fd, bool expected);
  /// Bind `member` to the connection `p` that dialed in again (a re-hello,
  /// or a reconnect to a promoted coordinator): replace a stale connection,
  /// record the failover address, clear the vacancy and catch it up.
  void rebind(Peer& p, int member, uint64_t from_hunt);
  /// Answer a connection from state: a welcome naming `member` (-1 for a
  /// joiner answered with outcomes), the final of every finished hunt from
  /// `from_hunt` on, then the close once the world is closed or, for a
  /// member while a hunt runs outside a promotion window, the view of the
  /// wave in progress and the leader. Stops if the peer is gone; a write
  /// error may drop it.
  void catch_up(int fd, int member, uint64_t from_hunt);
  void abort_world(const std::string& reason);
  void check_liveness(double now);
  void update_interest(Peer& p);

  // The wave machine (coordinator thread only).
  void handle_join(Peer& p, const util::Json& j);
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
  std::vector<int> fd_of_rank_;                      // rendezvous: rank -> fd (-1 absent)
  int joined_ = 0;
  bool welcomed_ = false;
  bool aborted_ = false;
  double started_ = 0;

  // Re-hello recovery (coordinator thread only). A rank retries rendezvous
  // only while it has not yet seen its welcome — so the first post-hello
  // frame from a member (its first heartbeat, sent the moment the welcome
  // lands) proves the welcome arrived. Until then a dropped connection
  // holds the member's slot vacant, and a re-hello is caught up from state
  // (catch_up): it cannot have reported, so no wave completed without it.
  std::set<int> spoke_;                 // members that sent a post-hello frame
  std::map<int, double> vacant_since_;  // member -> drop time, awaiting re-hello

  // The wave machine (coordinator thread only, except the atomics).
  std::map<int, Member> members_;  // by stable member id
  std::vector<int> pending_join_fds_;
  int next_member_ = 0;
  Hunt hunt_;                // the hunt running, or the last one
  bool hunting_ = false;     // hunt_ is open: its final rebalance has not gone out
  uint64_t wave_ = 0;
  int64_t ckpt_epoch_ = -1;  // last wave every active member checkpointed
  /// Every finished hunt's outcome, kept for the World's life so a rejoin
  /// that arrives hunts late still learns each one: the final rebalance
  /// with your_rank -1 (winner included) by hunt index.
  std::map<uint64_t, std::string> finals_;
  util::Json view_;  // the last non-final view sent (your_rank unset)
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
  std::atomic<bool> close_requested_{false};
  bool closed_ = false;  // the close frames went out (coordinator thread)

  std::thread thread_;
};

}  // namespace cas::dist
