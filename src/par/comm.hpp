// In-process message-passing layer mirroring the MPI subset the paper's
// parallel Adaptive Search uses (Sec. V-A): independent ranks, non-blocking
// probe ("some non-blocking tests are involved every c iterations to check
// if there is a message indicating that some other process has found a
// solution"), and a terminate-everyone broadcast by the winner.
//
// This stands in for the paper's OpenMPI runs: ranks are threads, each
// with a mutex-guarded mailbox (par/mailbox.hpp). The control flow of the
// paper's implementation is preserved exactly; only the transport differs.
// The collective algorithms live in par/collectives.hpp, shared verbatim
// with the socket-backed distributed communicator (dist::RankComm) — one
// implementation, two transports.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "par/collectives.hpp"
#include "par/mailbox.hpp"

namespace cas::par {

class Comm;

/// Per-rank handle passed to the rank function. Thread-safe against
/// concurrent senders; owned by exactly one rank thread.
class RankCtx {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;

  /// Non-blocking send (enqueue into dest's mailbox). Valid dest required.
  void send(int dest, Message msg) const;

  /// Send to every other rank.
  void broadcast_others(const Message& msg) const;

  /// Non-blocking probe-and-receive: first pending message, if any.
  [[nodiscard]] std::optional<Message> try_recv() const;

  /// Blocking receive.
  [[nodiscard]] Message recv() const;

  /// Blocking receive of the first message with the given tag, leaving all
  /// other messages queued (MPI-style tag matching).
  [[nodiscard]] Message recv_tagged(int tag) const;

  /// True once any rank has posted a terminate/solution message to us.
  /// Convenience used by multi-walk loops.
  [[nodiscard]] bool termination_pending() const;

  /// Blocking selective receive of a collective frame — the
  /// CollectiveEndpoint surface consumed by par/collectives.hpp. Ranks are
  /// threads of this process, so there is no deadline: a peer cannot die
  /// without taking the whole process with it.
  [[nodiscard]] Message recv_collective(int tag, int64_t seq) const;

  /// Advance the per-rank collective sequence number (one per collective
  /// call; allreduce burns two).
  [[nodiscard]] int64_t next_seq() { return static_cast<int64_t>(collective_seq_++); }

  // --- collectives -------------------------------------------------------
  // Every rank of the communicator must call the same collectives in the
  // same order (the MPI contract); the shared algorithms in
  // par/collectives.hpp implement them over this endpoint.

  /// Block until every rank has entered the barrier.
  void barrier();

  /// Root's `values` is distributed to every rank; others' input is
  /// ignored. Returns the broadcast payload on all ranks.
  std::vector<int64_t> broadcast(int root, std::vector<int64_t> values);

  /// Element-wise reduction of every rank's `values` (all must have equal
  /// length). The combined vector is returned at the root; other ranks get
  /// an empty vector.
  std::vector<int64_t> reduce(int root, const std::vector<int64_t>& values, ReduceOp op);

  /// reduce() followed by broadcast(): every rank receives the combination.
  std::vector<int64_t> allreduce(const std::vector<int64_t>& values, ReduceOp op);

  /// Root receives every rank's vector, indexed by source rank; other ranks
  /// get an empty result.
  std::vector<std::vector<int64_t>> gather(int root, const std::vector<int64_t>& values);

 private:
  friend class Comm;
  RankCtx(Comm* comm, int rank) : comm_(comm), rank_(rank) {}

  Comm* comm_;
  int rank_;
  uint64_t collective_seq_ = 0;  // advances once per collective call
};

static_assert(CollectiveEndpoint<RankCtx>);

/// A "communicator world" of N ranks, each running `fn` on its own thread.
class Comm {
 public:
  explicit Comm(int num_ranks);

  /// Run fn(ctx) on every rank; returns when all ranks have finished.
  void run(const std::function<void(RankCtx&)>& fn);

  [[nodiscard]] int size() const { return num_ranks_; }

 private:
  friend class RankCtx;

  void post(int dest, Message msg);

  int num_ranks_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
};

}  // namespace cas::par
