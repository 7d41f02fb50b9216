// RankComm: one process's endpoint of the distributed communicator.
//
// A fixed-rank request needs three things from it: the first-win stop
// (a rank that solves announces SOLUTION_FOUND, stamped with its request
// index, and every peer's walkers stop at their next probe), and the two
// collectives that close the request — gather the per-rank rows at rank 0,
// broadcast rank 0's decision. Elastic worlds use the broadcast for a
// stochastic seed and the control frames for everything else.
//
// Transport: a blocking connection to the rank-0 coordinator. A reader
// thread decodes incoming frames — collective frames into a private inbox
// matched by (tag, seq), SOLUTION_FOUND into the stop latch, rebalance
// frames into the control queue, leader frames straight to the leader
// hook — and a heartbeat thread keeps the coordinator's liveness policing
// fed. A received abort, connection loss, or a collective outliving its
// deadline fails the communicator: the inbox closes, every blocked receive
// unwinds, and CommError propagates.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/wire.hpp"
#include "net/frame.hpp"
#include "net/retry.hpp"
#include "net/socket.hpp"
#include "util/histogram.hpp"
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
  /// Heartbeat cadence; 0 disables the heartbeat thread.
  double heartbeat_interval_seconds = 1.0;
  /// A blocking collective receive outliving this deadline throws
  /// CommError (dead-peer detection from the waiting side). 0 (or more
  /// than 1e9 s) = forever.
  double collective_timeout_seconds = 120.0;
  size_t max_frame_bytes = net::kDefaultMaxFrame;
  /// Late-join handshake (elastic worlds): send `join` instead of `hello`;
  /// the welcome then carries the coordinator-assigned member id, and the
  /// dense rank stays -1 until the first rebalance frame names one.
  bool join = false;
  /// The canonical request key carried in the join frame (the coordinator
  /// refuses joiners whose key does not match the hunt in progress).
  std::string hunt_key;
  /// Post-promotion re-rendezvous (wire v3): send `reconnect` instead of
  /// hello/join, carrying the stable member id this process held before
  /// the coordinator died and the last epoch it observed. The welcome
  /// echoes the member id; the dense rank arrives with the resume
  /// rebalance, exactly like a late join.
  bool reconnect = false;
  int reconnect_member = -1;
  uint64_t reconnect_epoch = 0;
  /// This process's pre-bound promotion listener, announced in the
  /// hello/join/reconnect frame so the coordinator can elect it standby.
  /// Empty = not standby-eligible.
  std::string failover_addr;
  /// Fail the rendezvous on the FIRST refused connect instead of pacing
  /// retries until the deadline. Used by the reconnect handshake: the
  /// standby's listener was bound before the hunt started, so a refusal
  /// proves the standby process is dead — the double-failure abort must be
  /// prompt, not a connect-timeout hang.
  bool fail_fast_refused = false;
  /// Pacing for rendezvous retries: a connect/hello/welcome attempt that
  /// dies on a wire fault (reset, refusal, corrupt frame) is retried under
  /// this schedule — bounded by connect_timeout_seconds overall and
  /// disabled entirely by CAS_FAULT_NO_RETRY. Deliberate refusals (abort
  /// frames: version/rank/key mismatch) are never retried.
  net::BackoffOptions rendezvous_backoff;
  /// Per-attempt patience for the welcome wait. Some wire faults leave the
  /// stream wedged instead of broken — a corrupted length prefix parks the
  /// decoder mid-frame, a corrupted frame type turns the welcome into an
  /// ignorable stranger — and the connection stays healthy-looking on both
  /// ends. An attempt that has not produced a welcome within this window
  /// abandons the connection and re-hellos (the coordinator replays the
  /// lost welcome). 0 = wait the whole connect timeout.
  double rendezvous_attempt_seconds = 2.0;
};

class RankComm {
 public:
  /// Connects, says hello (or join), and blocks until welcome. Throws
  /// CommError.
  explicit RankComm(RankCommOptions opts);
  ~RankComm();
  RankComm(const RankComm&) = delete;
  RankComm& operator=(const RankComm&) = delete;

  /// The dense rank and the active world size.
  [[nodiscard]] int rank() const { return rank_.load(std::memory_order_acquire); }
  [[nodiscard]] int size() const { return ranks_.load(std::memory_order_acquire); }

  // --- the two collectives ---
  // Every rank must call the same collectives in the same order: each call
  // takes the next sequence number, and its frames are matched by
  // (tag, seq). A receive outliving collective_timeout_seconds, or a
  // failed communicator, throws CommError.

  /// Rank 0's `values` reach every rank; the others' input is ignored.
  std::vector<int64_t> broadcast(std::vector<int64_t> values);

  /// Rank 0 receives every rank's row, indexed by rank; the others get an
  /// empty result.
  std::vector<std::vector<int64_t>> gather(const std::vector<int64_t>& row);

  // --- first-win stop ---

  /// Enter the next request on this world: advance the request index and
  /// re-arm the stop, raised at once when a peer already announced a solve
  /// of this request or the communicator has failed. Every rank calls it
  /// once per request, whether or not the request runs.
  void begin_request();

  /// Tell every peer that this rank solved the current request. Best
  /// effort: a failed communicator has already raised every stop.
  void announce_solution();

  /// Raised by the reader thread when a peer announces a solve of the
  /// current request, and by communicator failure — wired into
  /// MultiWalkOptions::external_stop so local walkers unwind at their next
  /// probe.
  [[nodiscard]] std::atomic<bool>& remote_stop() { return remote_stop_; }

  // --- elastic surface ---

  /// The stable member id (== rank for initial members; coordinator-
  /// assigned for late joiners). Identity on the wire; the dense rank
  /// from rank() is what the collectives use.
  [[nodiscard]] int member() const { return member_; }

  /// Adopt the membership view a rebalance frame announced: the dense
  /// rank this member now holds (-1 = retired) and the active world size.
  void set_view(int rank, int ranks);

  /// Send a raw control frame (epoch / ckpt / leave) to the coordinator.
  void send_control(const util::Json& frame);

  /// Block until the coordinator's next control frame (rebalance) arrives.
  /// Returns nullopt on timeout (none at ≤ 0 s or ≥ 1e9 s, as for the
  /// collectives); throws CommError once the communicator has failed.
  [[nodiscard]] std::optional<util::Json> take_control(double timeout_seconds);

  /// Run `hook` on the reader thread for every leader frame (wire v5): the
  /// walker id and solve iteration of the hunt's current leader. It runs
  /// outside the control queue, so it lands while the caller blocks in
  /// take_control. A new hook is first called with the best leader already
  /// received, so none is lost before registration. Null removes it;
  /// removal waits out a running call. A malformed leader frame fails the
  /// communicator.
  void on_leader(std::function<void(uint64_t iters, int id)> hook);

  /// Fault injection: die like a SIGKILLed process — shut the socket down
  /// with no bye, join the threads, fail the communicator. The coordinator
  /// sees a connection lost, exactly as for a real kill.
  void hard_kill();

  /// Fault injection: sever just the TRANSPORT (shutdown, no bye), leaving
  /// the communicator object alive. The reader thread observes EOF and
  /// fails the comm — what a mid-epoch network partition looks like; the
  /// elastic runner's re-join path is the recovery under test.
  void inject_disconnect();

  /// Clean detach: bye to the coordinator, threads joined, socket closed.
  /// Idempotent; also run by the destructor.
  void finalize();

  [[nodiscard]] bool failed() const { return failed_.load(std::memory_order_acquire); }
  [[nodiscard]] std::string failure() const;

  /// The most recent state_sync frame the coordinator mirrored to this
  /// member ({"type","epoch","state"}), or null if none arrived — only the
  /// elected standby ever receives one. Thread-safe; survives failure and
  /// finalize, which is what promotion reads it after.
  [[nodiscard]] util::Json latest_state_sync() const;

  /// Comm counters + collective wait-latency percentiles for the report's
  /// dist provenance block.
  [[nodiscard]] util::Json stats_json() const;

 private:
  /// One connect + hello/join + await-welcome attempt. Throws
  /// RendezvousRetry (internal) on transient wire failures, CommError on
  /// deliberate refusals and deadline expiry.
  void rendezvous_once(double deadline, double attempt_deadline);
  void fail(const std::string& reason);
  bool drain_decoder();
  void reader_body();
  void heartbeat_body();
  void send_frame_locked_throw(const util::Json& j);
  void send_msg(int to, Message m);
  /// An incoming msg frame: SOLUTION_FOUND goes to the stop latch, a
  /// collective frame to the inbox. Throws CommError on a malformed one.
  void deliver(Message m);
  /// Blocking receive of the collective frame (tag, seq) from the inbox.
  Message receive(int tag, int64_t seq);

  RankCommOptions opts_;
  net::Fd fd_;
  /// Used by the constructor's rendezvous (caller thread), then handed to
  /// the reader thread — never both at once.
  net::FrameDecoder decoder_;

  // The inbox: collective frames waiting for their receive. Closed (every
  // receive unwinds) once the communicator fails.
  std::mutex inbox_mu_;
  std::condition_variable inbox_cv_;
  std::vector<Message> inbox_;
  int64_t collective_seq_ = 0;  // caller-thread-only

  // The stop latch: the caller's current request index, and the solves
  // peers announced for later requests (armed when the request starts).
  std::mutex stop_mu_;
  uint64_t request_ = 0;
  std::set<uint64_t> stops_ahead_;

  // The current membership view (dense rank + active world size); fixed
  // for classic worlds, updated by set_view at every rebalance in elastic
  // ones. member_ is written once during construction.
  std::atomic<int> rank_{0};
  std::atomic<int> ranks_{1};
  int member_ = 0;

  std::mutex control_mu_;
  std::condition_variable control_cv_;
  std::deque<util::Json> control_;

  std::mutex leader_mu_;  // held while the hook runs
  std::function<void(uint64_t iters, int id)> leader_hook_;
  std::optional<std::pair<uint64_t, int>> leader_;  // best (iters, id) received

  mutable std::mutex state_sync_mu_;
  util::Json state_sync_;  // latest replicated coordinator state (standby)

  std::mutex send_mu_;
  std::atomic<bool> stop_threads_{false};
  std::atomic<bool> finalized_{false};
  std::atomic<bool> failed_{false};
  std::atomic<bool> remote_stop_{false};
  mutable std::mutex failure_mu_;
  std::string failure_;
  std::condition_variable hb_cv_;
  std::mutex hb_mu_;

  // Counters. frames/bytes sent are guarded by send_mu_; received ones are
  // reader-thread-only until the threads are joined; the histogram and
  // round counter are caller-thread-only. stats_json() is documented safe
  // after finalize() and best-effort live.
  std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> bytes_received_{0};
  std::atomic<uint64_t> collective_rounds_{0};
  std::atomic<uint64_t> rendezvous_retries_{0};
  mutable std::mutex latency_mu_;
  util::LogHistogram collective_wait_;

  std::thread reader_;
  std::thread heartbeat_;
};

}  // namespace cas::dist
