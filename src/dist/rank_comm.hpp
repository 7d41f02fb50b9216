// RankComm: one process's endpoint of a distributed world — a blocking
// connection to the coordinator one member hosts.
//
// The constructor runs the rendezvous (hello, or a late member's join or
// reconnect, then the welcome) and sends the first heartbeat at once: a
// frame from the member proves to the coordinator that the welcome landed.
// Every receive goes through one net::BlockingClient: the rendezvous waits
// for the welcome with it, then one reader thread loops on its recv_frame and
// dispatches each frame — rebalance frames into the control queue the
// elastic runner blocks on, leader frames straight to the leader hook,
// state_sync frames into the standby's mirror. The same thread keeps the
// coordinator's liveness policing fed: before each wait it sends a
// heartbeat if one is due, and it never waits past the next. Sends write to
// the client's socket under a mutex and touch nothing else of it. A
// received abort or a lost connection fails the communicator: a blocked
// take_control unwinds and CommError propagates.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "dist/wire.hpp"
#include "net/retry.hpp"
#include "net/socket.hpp"
#include "util/json.hpp"

namespace cas::dist {

struct RankCommOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int rank = 0;
  int ranks = 1;
  /// Window for connect + rendezvous (connect retries until the
  /// coordinator's socket exists — ranks race the rank-0 process's bind).
  double connect_timeout_seconds = 15.0;
  /// Heartbeat cadence; 0 disables heartbeats.
  double heartbeat_interval_seconds = 1.0;
  /// A late member's handshake, sent instead of hello(rank, ranks): a join
  /// (make_join) or a post-promotion reconnect (make_reconnect). The welcome
  /// then carries the member id, and the dense rank stays -1 until a
  /// rebalance names one. A refused connect fails a late handshake at
  /// once: a joiner dials a running world, and the standby's listener was
  /// bound before the world started, so a refusal proves it dead.
  util::Json handshake;
  /// This process's pre-bound promotion listener, announced in the
  /// handshake so the coordinator can elect it standby. Empty = not
  /// standby-eligible.
  std::string failover_addr;
  /// Pacing for rendezvous retries: a connect/hello/welcome attempt that
  /// dies on a wire fault (reset, refusal, corrupt frame) is retried under
  /// this schedule — bounded by connect_timeout_seconds overall and
  /// disabled entirely by CAS_FAULT_NO_RETRY. Deliberate refusals (abort
  /// frames: version/rank/key mismatch) are never retried.
  net::BackoffOptions rendezvous_backoff;
};

class RankComm {
 public:
  /// Per-attempt patience for the welcome wait. Some wire faults leave the
  /// stream wedged instead of broken — a corrupted length prefix parks the
  /// decoder mid-frame — and the connection stays healthy-looking on both
  /// ends. An attempt that has not produced a welcome within this window
  /// abandons the connection and re-hellos (the coordinator answers it from
  /// its state, welcome first).
  static constexpr double kRendezvousAttemptSeconds = 2.0;

  /// Connects, sends the handshake, blocks until welcome and sends the
  /// first heartbeat. Throws CommError.
  explicit RankComm(RankCommOptions opts);
  ~RankComm();
  RankComm(const RankComm&) = delete;
  RankComm& operator=(const RankComm&) = delete;

  /// The dense rank (-1 until a rebalance names one, or once retired) and
  /// the active world size.
  [[nodiscard]] int rank() const { return rank_.load(std::memory_order_acquire); }
  [[nodiscard]] int size() const { return ranks_.load(std::memory_order_acquire); }

  /// The stable member id (== rank for initial members; coordinator-
  /// assigned for late joiners, -1 until a welcome names one). Identity on
  /// the wire.
  [[nodiscard]] int member() const { return member_.load(std::memory_order_acquire); }

  /// Adopt the membership view a rebalance frame announced: the dense
  /// rank this member now holds (-1 = retired) and the active world size.
  void set_view(int rank, int ranks);

  /// Send a control frame (epoch / ckpt / leave / solved) to the
  /// coordinator.
  void send_control(const util::Json& frame);

  /// Block until the coordinator's next rebalance frame arrives. Returns
  /// nullopt on timeout (none at ≤ 0 s or ≥ 1e9 s); throws CommError once
  /// the communicator has failed.
  [[nodiscard]] std::optional<util::Json> take_control(double timeout_seconds);

  /// Run `hook` on the reader thread for every leader frame of hunt `hunt`
  /// (wire v6): the walker id and solve iteration of the hunt's current
  /// leader. It runs outside the control queue, so it lands while the
  /// caller blocks in take_control. The communicator remembers the best
  /// leader of the newest hunt it heard of, and a new hook is first called
  /// with it when it belongs to `hunt`, so none is lost before
  /// registration. Frames of other hunts never reach the hook. Null removes
  /// it; removal waits out a running call. A malformed leader frame fails
  /// the communicator.
  void on_leader(uint64_t hunt, std::function<void(uint64_t iters, int id)> hook);

  /// Fault injection: die like a SIGKILLed process — shut the socket down
  /// with no bye, join the reader, fail the communicator. The coordinator
  /// sees a connection lost, exactly as for a real kill.
  void hard_kill();

  /// Fault injection: sever just the TRANSPORT (shutdown, no bye), leaving
  /// the communicator object alive. The reader thread observes EOF and
  /// fails the comm — what a mid-epoch network partition looks like; the
  /// elastic runner's re-join path is the recovery under test.
  void inject_disconnect();

  /// Clean detach: bye to the coordinator, reader joined, socket closed.
  /// Idempotent; also run by the destructor.
  void finalize();

  [[nodiscard]] bool failed() const { return failed_.load(std::memory_order_acquire); }
  [[nodiscard]] std::string failure() const;

  /// The most recent state_sync frame the coordinator mirrored to this
  /// member ({"type","epoch","state"}), or null if none arrived — only the
  /// elected standby ever receives one. Thread-safe; survives failure and
  /// finalize, which is what promotion reads it after.
  [[nodiscard]] util::Json latest_state_sync() const;

  /// Comm counters for the report's dist provenance block.
  [[nodiscard]] util::Json stats_json() const;

 private:
  /// One connect + handshake + await-welcome attempt. Throws
  /// RendezvousRetry (internal) on transient wire failures, CommError on
  /// deliberate refusals and deadline expiry.
  void rendezvous_once(double deadline, double attempt_deadline);
  void fail(const std::string& reason);
  /// Act on one frame from the coordinator. Returns false when the
  /// communicator failed (the reader must exit).
  bool dispatch(const std::string& payload);
  void reader_body();
  /// Frame and write `j`, counting it; false with `err` on a write error.
  bool write_frame(const util::Json& j, std::string& err);
  void send_frame_locked_throw(const util::Json& j);

  RankCommOptions opts_;
  /// Received on by the constructor's rendezvous (caller thread), then by
  /// the reader thread alone. Sends only write to its socket, under
  /// send_mu_; it is closed once the reader is joined.
  net::BlockingClient client_;

  // The current membership view (dense rank + active world size), updated
  // by set_view at every rebalance, and the member id a welcome assigned.
  std::atomic<int> rank_{0};
  std::atomic<int> ranks_{1};
  std::atomic<int> member_{0};

  std::mutex control_mu_;
  std::condition_variable control_cv_;
  std::deque<util::Json> control_;

  std::mutex leader_mu_;  // held while the hook runs
  std::function<void(uint64_t iters, int id)> leader_hook_;
  uint64_t hook_hunt_ = 0;
  uint64_t leader_hunt_ = 0;                         // the newest hunt a leader frame named
  std::optional<std::pair<uint64_t, int>> leader_;  // its best (iters, id)

  mutable std::mutex state_sync_mu_;
  util::Json state_sync_;  // latest replicated coordinator state (standby)

  std::mutex send_mu_;
  std::atomic<bool> stop_threads_{false};
  std::atomic<bool> finalized_{false};
  std::atomic<bool> failed_{false};
  mutable std::mutex failure_mu_;
  std::string failure_;

  // Counters. frames/bytes sent are guarded by send_mu_; received ones are
  // written by the receiving thread only (bytes mirror the client's count).
  // stats_json() is safe after finalize() and best-effort live.
  std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> bytes_received_{0};
  std::atomic<uint64_t> rendezvous_retries_{0};

  std::thread reader_;
};

}  // namespace cas::dist
